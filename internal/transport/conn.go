package transport

import (
	"net"
	"time"

	"apf/internal/fl"
	"apf/internal/wire"
)

// Inbound payload limits, enforced by wire.FrameReader from the frame header
// before any payload is read: a hostile peer cannot drive an allocation
// past these.
const (
	// joinPayloadLimit bounds a JoinMsg (a name, a session key, a round
	// number) generously.
	joinPayloadLimit = 1 << 16
	// modelPayloadSlack covers every non-payload field of an Update or
	// Global body beyond its dim·8 bytes of floats.
	modelPayloadSlack = 1 << 10
)

// modelPayloadLimit bounds a frame carrying at most dim float64s of model
// payload (UpdateMsg and GlobalMsg; compact payloads are strictly
// shorter).
func modelPayloadLimit(dim int) int { return dim*8 + modelPayloadSlack }

// partialPayloadLimit bounds a frame carrying a relay's exact partial sum
// at the packed layout's worst case: every block at the full 16 bytes per
// coordinate plus its width tag (typical sums pack to about 8).
func partialPayloadLimit(dim int) int { return fl.MaxPackedLen(dim) + modelPayloadSlack }

// readMsg reads one framed message with the connection's I/O deadline and
// the given payload limit, accounting the frame (or the decode failure)
// to wm.
func readMsg(c net.Conn, timeout time.Duration, limit int, wm *wireMetrics) (wire.Msg, error) {
	var fr wire.FrameReader
	return readFrom(&fr, c, timeout, limit, wm)
}

// readFrom is readMsg through a caller-owned frame reader, whose Alloc
// supplies the vectors dense payloads stream into.
func readFrom(fr *wire.FrameReader, c net.Conn, timeout time.Duration, limit int, wm *wireMetrics) (wire.Msg, error) {
	if err := c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	// The metered wrapper measures exactly this call's bytes; the
	// connection's own counters mix in concurrent writer traffic.
	mr := meteredReader{r: c}
	m, err := fr.Read(&mr, limit)
	if err != nil {
		wm.recordReadErr(err)
		return nil, err
	}
	wm.recordFrame(dirIn, m.WireKind(), mr.n)
	return m, nil
}

// writeFrame writes one pre-encoded frame of the given kind with the
// connection's I/O deadline. The frame goes out in a single Write, so
// concurrent writers never interleave partial frames and a torn-write
// fault tears at most one message.
func writeFrame(c net.Conn, timeout time.Duration, frame []byte, wm *wireMetrics, kind wire.Kind) error {
	if err := c.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	_, err := c.Write(frame)
	if err == nil {
		wm.recordFrame(dirOut, kind, len(frame))
	}
	return err
}

// writeMsg frames and writes one message with the connection's I/O
// deadline.
func writeMsg(c net.Conn, timeout time.Duration, m wire.Msg, wm *wireMetrics) error {
	return writeFrame(c, timeout, wire.Encode(m), wm, m.WireKind())
}
