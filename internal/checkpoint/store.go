package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store persists a coordinator under one directory as a generation of
//
//	snap-<rounds>.ckpt   one snapshot frame: state after <rounds>
//	                     completed rounds
//	wal-<rounds>.log     record frames appended since that snapshot, each
//	                     stamped with <rounds>
//
// next to snap.spare, the retired snapshot file kept for reuse. Both are
// frames of the package's one format, under the two kinds the store owns,
// which no wire message uses: a snapshot file or log record handed to the
// wire decoder is an unknown kind, and a wire frame in a store is damage.
//
// WriteSnapshot is atomic: the frame is written over the spare, fsync'd,
// renamed to its snap-* name, and the directory fsync'd. The previous
// generation is then retired by renames alone: its log becomes the new
// generation's, with appends restarting at offset 0 over the old records,
// and its snapshot becomes the spare. The steady state therefore frees no
// block, so it never pays the stall an unlink or truncate adds to the next
// fsync on a filesystem mounted with online discard (0.1–0.5 s on ext4),
// and the directory stays at two snapshot files and one log.
// Append fsyncs each record before returning, so a record that was
// acknowledged survives kill -9.
//
// Load recovers the newest generation whose snapshot decodes with a valid
// checksum, then replays its WAL up to the first damaged frame or the first
// record stamped with another generation — a torn tail (the record being
// appended when the process died) or the stale records of a recycled log
// end the replay rather than failing it. The cut-off bytes are trimmed, so
// records appended after recovery stay reachable by the next recovery.
type Store struct {
	dir    string
	rounds int      // generation currently appended to
	wal    *os.File // open WAL of that generation
	off    int64    // WAL offset of the next record
	buf    []byte   // record being appended, reused across Appends
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".ckpt"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	// spareName is outside the snap-*.ckpt namespace, so recovery never
	// reads it; the next snapshot is written into it in place.
	spareName = "snap.spare"

	// The frame kinds the store writes, outside the wire's message kinds.
	kindSnapshot byte = 0x80
	kindRecord   byte = 0x81
	// recordStampLen is the generation stamp leading a record's payload.
	recordStampLen = 8
)

// appendFrame appends a frame of kind around payload to dst.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	start := len(dst)
	return SealFrame(append(append(dst, make([]byte, HeaderLen)...), payload...), start, kind)
}

// appendRecord appends one log record: a frame whose payload is the
// generation stamp gen (8 bytes, little-endian) followed by payload, so the
// checksum covers both. A recycled log file keeps the records of earlier
// generations behind the live ones; their stamps are what replay stops at.
func appendRecord(dst []byte, gen uint64, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(append(dst, make([]byte, HeaderLen)...), gen)
	return SealFrame(append(dst, payload...), start, kindRecord)
}

// Open prepares a store in dir, creating it when missing. No files are
// written until the first WriteSnapshot.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store: %w", err)
	}
	return &Store{dir: dir, rounds: -1}, nil
}

func (s *Store) snapPath(rounds int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", snapPrefix, rounds, snapSuffix))
}

func (s *Store) walPath(rounds int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", walPrefix, rounds, walSuffix))
}

func (s *Store) sparePath() string { return filepath.Join(s.dir, spareName) }

// generations lists the snapshot round numbers present on disk,
// ascending. Unparseable names are ignored.
func (s *Store) generations() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan store: %w", err)
	}
	var gens []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix))
		if err != nil || n < 0 {
			continue
		}
		gens = append(gens, n)
	}
	sort.Ints(gens)
	return gens, nil
}

// syncDir fsyncs the store directory so renames are durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteSnapshot durably begins a new generation: the framed snapshot
// payload is published atomically, and the previous generation's log and
// snapshot file are recycled as the new log and the spare. rounds is the
// number of completed rounds the snapshot captures and must increase
// across calls. n is the length of the snapshot frame written.
func (s *Store) WriteSnapshot(rounds int, payload []byte) (n int, err error) {
	if rounds < 0 {
		return 0, fmt.Errorf("checkpoint: negative snapshot round %d", rounds)
	}
	if rounds <= s.rounds {
		return 0, fmt.Errorf("checkpoint: snapshot rounds %d not beyond current generation %d", rounds, s.rounds)
	}
	frame := appendFrame(nil, kindSnapshot, payload)
	if err := overwriteSync(s.sparePath(), frame); err != nil {
		return 0, fmt.Errorf("checkpoint: write snapshot: %w", err)
	}
	if err := os.Rename(s.sparePath(), s.snapPath(rounds)); err != nil {
		return 0, fmt.Errorf("checkpoint: publish snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return 0, fmt.Errorf("checkpoint: sync store: %w", err)
	}

	// The snapshot is durable: retire the previous generation. Its
	// records carry the old stamp, so the new generation's replay stops
	// at the first of them that the appends have not yet overwritten.
	if s.wal != nil {
		if err := os.Rename(s.walPath(s.rounds), s.walPath(rounds)); err != nil {
			return 0, fmt.Errorf("checkpoint: recycle wal: %w", err)
		}
	} else {
		// The first generation of this Store. A log left under this name
		// could carry this very stamp, so it is emptied, not recycled.
		wal, err := os.OpenFile(s.walPath(rounds), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, fmt.Errorf("checkpoint: open wal: %w", err)
		}
		s.wal = wal
	}
	if s.rounds >= 0 {
		if err := os.Rename(s.snapPath(s.rounds), s.sparePath()); err != nil {
			return 0, fmt.Errorf("checkpoint: recycle snapshot: %w", err)
		}
	}
	s.rounds, s.off = rounds, 0
	if err := s.syncDir(); err != nil {
		return 0, fmt.Errorf("checkpoint: sync store: %w", err)
	}
	return len(frame), nil
}

// Append durably appends one record to the current generation's WAL and
// returns the length of the record frame written (header, generation
// stamp, payload, trailer). It must follow a WriteSnapshot (or a Load that
// found one), and allocates nothing once its buffer has grown to the
// record size.
func (s *Store) Append(payload []byte) (n int, err error) {
	if s.wal == nil {
		return 0, fmt.Errorf("checkpoint: append without a snapshot generation")
	}
	s.buf = appendRecord(s.buf[:0], uint64(s.rounds), payload)
	if _, err := s.wal.WriteAt(s.buf, s.off); err != nil {
		return 0, fmt.Errorf("checkpoint: append wal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return 0, fmt.Errorf("checkpoint: sync wal: %w", err)
	}
	s.off += int64(len(s.buf))
	return len(s.buf), nil
}

// Load recovers the newest consistent generation: it returns the snapshot
// round count and payload, and the payloads of the WAL records appended
// after it, stopping the replay at the first damaged frame (torn tail) or
// stale record. found is false when the store holds no usable snapshot
// (fresh start); a snapshot written by another format version is an error
// wrapping ErrVersion, never a fresh start, and so is a checksummed frame
// in the WAL that is no log record (ErrCorrupt), which no build writes.
// After a successful Load, Append continues the recovered generation's WAL.
func (s *Store) Load() (rounds int, payload []byte, wal [][]byte, found bool, err error) {
	gens, err := s.generations()
	if err != nil {
		return 0, nil, nil, false, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		r := gens[i]
		buf, rerr := os.ReadFile(s.snapPath(r))
		if rerr != nil {
			continue
		}
		// A recycled snapshot file can be longer than its frame; the
		// bytes behind the frame are a retired snapshot's.
		kind, p, _, ferr := ReadFrame(buf, 0)
		if errors.Is(ferr, ErrVersion) {
			return 0, nil, nil, false, fmt.Errorf("checkpoint: snapshot %s: %w", filepath.Base(s.snapPath(r)), ferr)
		}
		if ferr != nil || kind != kindSnapshot {
			continue // damaged snapshot: fall back to the previous generation
		}
		if i > 0 {
			// A crash between publishing snapshot r and retiring its
			// predecessor left that generation behind: finish the rotation.
			if err := s.retire(gens[i-1], r); err != nil {
				return 0, nil, nil, false, fmt.Errorf("checkpoint: retire generation %d: %w", gens[i-1], err)
			}
		}
		records, err := s.reopenWAL(r)
		if err != nil {
			return 0, nil, nil, false, err
		}
		return r, p, records, true, nil
	}
	return 0, nil, nil, false, nil
}

// retire completes what WriteSnapshot does once snapshot r is durable:
// generation prev's log becomes r's unless r already has one, and its
// snapshot becomes the spare unless there already is one.
func (s *Store) retire(prev, r int) error {
	if err := renameOnto(s.walPath(prev), s.walPath(r)); err != nil {
		return err
	}
	if err := renameOnto(s.snapPath(prev), s.sparePath()); err != nil {
		return err
	}
	return s.syncDir()
}

// renameOnto renames from to to when to does not exist and from does.
func renameOnto(from, to string) error {
	if _, err := os.Lstat(to); !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.Rename(from, to); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// reopenWAL replays generation r's log and makes it the append target,
// positioned after the replayed records.
func (s *Store) reopenWAL(r int) ([][]byte, error) {
	buf, err := os.ReadFile(s.walPath(r))
	missing := errors.Is(err, fs.ErrNotExist)
	if err != nil && !missing {
		return nil, fmt.Errorf("checkpoint: read wal: %w", err)
	}
	records, live, err := replayRecords(buf, uint64(r))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: replay %s: %w", filepath.Base(s.walPath(r)), err)
	}
	f, err := os.OpenFile(s.walPath(r), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reopen wal: %w", err)
	}
	if missing {
		// A crash between publishing the snapshot and creating its log:
		// the log created here must outlive a power loss with the rounds
		// committed to it.
		if err := s.syncDir(); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: sync store: %w", err)
		}
	}
	// Cut off everything behind the live records once, here: a torn frame
	// left in place could otherwise be partly overwritten by a shorter
	// record and leave a remnant behind it for a later replay to misread.
	if err := truncateSync(f, int64(live)); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: trim wal tail: %w", err)
	}
	if s.wal != nil {
		_ = s.wal.Close()
	}
	s.wal, s.rounds, s.off = f, r, int64(live)
	return records, nil
}

// replayRecords reads generation gen's record payloads from the front of
// a log, stopping at the first damaged frame or the first record stamped
// with another generation, and returns them with the byte length they
// span. Payloads alias buf. A checksummed frame of another kind is no
// torn tail: it fails the replay, rather than being cut off with every
// record behind it.
func replayRecords(buf []byte, gen uint64) (records [][]byte, live int, err error) {
	for {
		kind, payload, rest, err := ReadFrame(buf[live:], 0)
		if err != nil {
			// io.EOF: clean end; ErrCorrupt/ErrVersion/ErrTooLarge: torn
			// tail or the middle of a stale frame.
			return records, live, nil
		}
		if kind != kindRecord {
			return nil, 0, fmt.Errorf("%w: frame of kind %d at log offset %d", ErrCorrupt, kind, live)
		}
		if len(payload) < recordStampLen || binary.LittleEndian.Uint64(payload) != gen {
			return records, live, nil // a stale (or stampless) record
		}
		records = append(records, payload[recordStampLen:])
		live = len(buf) - len(rest)
	}
}

// truncateSync shortens f to size iff it is longer, making the cut
// durable.
func truncateSync(f *os.File, size int64) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() <= size {
		return nil
	}
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// Close releases the open WAL handle.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// overwriteSync writes data over the front of the file at path, creating
// it when missing, and fsyncs it. The file is not truncated — rewriting
// allocated blocks frees none — so bytes past len(data) keep their old
// contents for the reader to ignore.
func overwriteSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
