//go:build unix

package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"syscall"
	"testing"
)

// storeInodes maps every file in a store directory to its inode number.
func storeInodes(t *testing.T, dir string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, name := range storeFiles(t, dir) {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fi.Sys().(*syscall.Stat_t).Ino
	}
	return out
}

// TestStoreRotationReusesInodes pins the mechanism behind the rotation's
// cost: from the third rotation on, every rotation runs on the same three
// files — it creates none and frees none, so no block is ever discarded on
// the commit path.
func TestStoreRotationReusesInodes(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	var pinned []uint64
	for i := 0; i < 10; i++ {
		if _, err := st.WriteSnapshot(3*i, []byte("snapshot")); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, st, "a", "b")
		inodes := storeInodes(t, dir)
		var set []uint64
		for _, ino := range inodes {
			set = append(set, ino)
		}
		slices.Sort(set)
		switch {
		case i == 1:
			// Hold the files open, so an inode an unlink frees cannot be
			// handed to a file created later: a new file always shows up
			// as a new inode number.
			for name := range inodes {
				f, err := os.Open(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
			}
			pinned = set
		case i > 1 && !reflect.DeepEqual(set, pinned):
			t.Fatalf("rotation %d runs on inodes %v (%v), want the set %v of the second rotation", i+1, set, inodes, pinned)
		}
	}
	if len(pinned) != 3 {
		t.Fatalf("steady state holds %d files, want 2 snapshot files and 1 log", len(pinned))
	}
}
