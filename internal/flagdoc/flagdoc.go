// Package flagdoc holds the guard the tier binaries' tests share: the
// README's flag table may name a binary only for flags that binary
// registers.
package flagdoc

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	// listed matches a flag in a FlagSet's PrintDefaults listing.
	listed = regexp.MustCompile(`(?m)^  -([\w-]+)`)
	// row matches a README flag-table row: | `-flag` | binaries | meaning |
	row = regexp.MustCompile("(?m)^\\| `-([\\w-]+)` \\| ([^|]+) \\|")
)

// Check runs run with -h, reads the flags the listing names, and fails t
// for every row of the flag table in the README at readme that names
// binary ("server", "relay" or "client"), or "all" three, for a flag
// missing from that listing. A row naming anything else fails too.
func Check(t testing.TB, binary, readme string, run func([]string) error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stderr := os.Stderr
	os.Stderr = w
	_ = run([]string{"-h"}) // flag.ErrHelp, after the listing
	os.Stderr = stderr
	w.Close()
	registered := map[string]bool{}
	for _, m := range listed.FindAllSubmatch(<-out, -1) {
		registered[string(m[1])] = true
	}
	if len(registered) == 0 {
		t.Fatal("-h printed no flag listing")
	}

	doc, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range row.FindAllSubmatch(doc, -1) {
		flag := string(m[1])
		for _, b := range strings.Split(string(m[2]), ",") {
			switch b = strings.TrimSpace(b); b {
			case binary, "all":
				if !registered[flag] {
					t.Errorf("the README's flag table names %s for -%s, which it does not register", binary, flag)
				}
			case "server", "relay", "client":
			default:
				t.Errorf("the README's flag table names %q for -%s; want server, relay, client or all", b, flag)
			}
		}
	}
}
