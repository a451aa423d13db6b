package transport

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when a goroutine running this package's code
// outlives the last test by more than leakGrace: every server, relay and
// client goroutine must end once its Run returns. It prints the leaked
// stacks.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(leakGrace, nil); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutine(s) of package transport outlived the tests by %v:\n\n%s\n",
				len(leaked), leakGrace, bytes.Join(leaked, []byte("\n\n")))
			code = 1
		}
	}
	os.Exit(code)
}

// leakGrace is how long goroutines get to wind down after the last test.
const leakGrace = 3 * time.Second

// leakedGoroutines polls until no goroutine but the caller's, and none
// whose id is in known, runs a frame of this package, or grace passes; it
// returns the stacks still alive. The polls back off from 1 ms to 100 ms
// between snapshots, as goleak does: a goroutine that has signalled its
// join may not have returned yet.
func leakedGoroutines(grace time.Duration, known map[string]bool) [][]byte {
	deadline := time.Now().Add(grace)
	for wait := time.Millisecond; ; wait = min(2*wait, 100*time.Millisecond) {
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		var leaked [][]byte
		// The first stack is the caller's own.
		for _, g := range bytes.Split(buf, []byte("\n\n"))[1:] {
			if bytes.Contains(g, []byte("apf/internal/transport.")) && !known[goroutineID(g)] {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(min(wait, time.Until(deadline)))
	}
}

// goroutineID returns the id of a goroutine stack ("goroutine 7 [...]").
func goroutineID(stack []byte) string { return string(bytes.Fields(stack)[1]) }
