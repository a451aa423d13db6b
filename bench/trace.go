package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/wire"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the episode started. Parent indexes the enclosing span in the same
// dump (-1 for none); it is resolved by tracer.link once the episode ended,
// because a round's span closes after its children were recorded.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Client int    `json:"client"` // -1 for a tier (server, relay, root)
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// Span names. A client's "round" span covers one applied round; "nn.train"
// and the client-side core/transport spans are its children, and the
// post-iterate calls are children of nn.train (they run inside the local
// training loop), so nn.train's self time is pure model compute. Likewise
// client.encode (PrepareUpload returned → frame handed to the socket) holds
// core.compact, and client.decode (last byte read → ApplyDownload) holds
// core.expand.
const (
	spanRound         = "round"
	spanTrain         = "nn.train"
	spanPostIterate   = "core.post_iterate"
	spanPrepareUpload = "core.prepare_upload"
	spanCompact       = "core.compact"
	spanExpand        = "core.expand"
	spanApplyDownload = "core.apply_download"
	spanClientEncode  = "client.encode"
	spanClientWrite   = "client.write"
	spanClientWait    = "client.wait"
	spanClientDecode  = "client.decode"
	spanFanoutWrite   = "server.fanout_write"
	spanResume        = "catchup.resume"
)

// tracer keeps the spans and tapped frames of one traced episode in memory.
type tracer struct {
	t0       time.Time
	tapRound int // the mid-run round whose frames are kept for replay

	mu     sync.Mutex
	spans  []span
	up     [][]byte // tapRound's update frame of every client, by arrival
	down   []byte   // one of tapRound's global frames
	frames int64    // every frame written on a wrapped connection
	// resumes counts client reconnects; resumeBytes sums what each cost on
	// the wire before its in-flight update could be re-sent.
	resumes     int64
	resumeBytes int64
}

func newTracer(tapRound int) *tracer {
	return &tracer{t0: time.Now(), tapRound: tapRound}
}

func (t *tracer) add(name string, start, end time.Time, round, client int) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Parent: -1, Round: round, Client: client,
	})
	t.mu.Unlock()
}

// parentOf names the span that encloses each client-side span within the
// same (client, round).
var parentOf = map[string]string{
	spanTrain: spanRound, spanPrepareUpload: spanRound, spanClientEncode: spanRound,
	spanClientWrite: spanRound, spanClientWait: spanRound, spanClientDecode: spanRound,
	spanApplyDownload: spanRound,
	spanPostIterate:   spanTrain,
	spanCompact:       spanClientEncode,
	spanExpand:        spanClientDecode,
}

// link resolves Parent for every span that has one.
func (t *tracer) link() {
	type key struct {
		name          string
		client, round int
	}
	at := make(map[key]int)
	for i, s := range t.spans {
		at[key{s.Name, s.Client, s.Round}] = i
	}
	for i := range t.spans {
		s := &t.spans[i]
		if p, ok := at[key{parentOf[s.Name], s.Client, s.Round}]; ok {
			s.Parent = p
		}
	}
}

// selfTimes returns every span's duration minus the part its children
// cover, in milliseconds, indexed like spans. Children of one parent never
// overlap here (each client is one goroutine), so coverage is their sum.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}

// managerRec is the recording half of the traced manager wrappers: it owns
// the client's round clock (a round starts when the previous aggregate was
// applied) and emits the round, nn.train and core.* spans.
type managerRec struct {
	tr         *tracer
	client     int
	ep         *endpoint // the same client's connections
	roundStart time.Time // zero before the first applied round
}

// span closes a span opened at start; call as `defer r.span(name, round, time.Now())`.
func (r *managerRec) span(name string, round int, start time.Time) {
	r.tr.add(name, start, time.Now(), round, r.client)
}

// trained closes the round's nn.train span: everything between the
// previous aggregate landing and PrepareUpload is the local training loop.
func (r *managerRec) trained(round int) {
	if !r.roundStart.IsZero() {
		r.tr.add(spanTrain, r.roundStart, time.Now(), round, r.client)
	}
}

// prepared closes the PrepareUpload span and opens client.encode, which
// the connection closes when the update frame reaches it.
func (r *managerRec) prepared(round int, start time.Time) {
	now := time.Now()
	r.tr.add(spanPrepareUpload, start, now, round, r.client)
	r.ep.prepEnd = now
}

// downloading closes client.decode: the aggregate's last byte was read at
// ep.waitLast and ApplyDownload is about to start.
func (r *managerRec) downloading(round int, start time.Time) {
	if !r.ep.waitLast.IsZero() {
		r.tr.add(spanClientDecode, r.ep.waitLast, start, round, r.client)
	}
}

// applied closes the round span and starts the next round's clock.
func (r *managerRec) applied(round int) {
	now := time.Now()
	if !r.roundStart.IsZero() {
		r.tr.add(spanRound, r.roundStart, now, round, r.client)
	}
	r.roundStart = now
}

// tracedPlain times a manager known only through fl.SyncManager (the
// passthrough baseline). It must not expose fl.CompactCodec: the client
// would then treat dense payloads as compact ones.
type tracedPlain struct {
	fl.SyncManager
	rec managerRec
}

func (m *tracedPlain) PostIterate(round int, x []float64) {
	defer m.rec.span(spanPostIterate, round, time.Now())
	m.SyncManager.PostIterate(round, x)
}

func (m *tracedPlain) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	m.rec.trained(round)
	defer m.rec.prepared(round, time.Now())
	return m.SyncManager.PrepareUpload(round, x)
}

func (m *tracedPlain) ApplyDownload(round int, x, global []float64) int64 {
	start := time.Now()
	m.rec.downloading(round, start)
	n := m.SyncManager.ApplyDownload(round, x, global)
	m.rec.span(spanApplyDownload, round, start)
	m.rec.applied(round)
	return n
}

// tracedAPF times a core.Manager. Embedding the concrete type keeps
// CompactLen, MaskWords, MaskGeneration, FrozenRatio and the catch-up
// methods promoted, so the client negotiates sparse codecs and resumes
// through the wrapper exactly as it does without it.
type tracedAPF struct {
	*core.Manager
	rec managerRec
}

func (m *tracedAPF) PostIterate(round int, x []float64) {
	defer m.rec.span(spanPostIterate, round, time.Now())
	m.Manager.PostIterate(round, x)
}

func (m *tracedAPF) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	m.rec.trained(round)
	defer m.rec.prepared(round, time.Now())
	return m.Manager.PrepareUpload(round, x)
}

func (m *tracedAPF) CompactUpload(round int, contrib []float64) []float64 {
	defer m.rec.span(spanCompact, round, time.Now())
	return m.Manager.CompactUpload(round, contrib)
}

func (m *tracedAPF) ExpandDownload(round int, compact []float64) []float64 {
	defer m.rec.span(spanExpand, round, time.Now())
	return m.Manager.ExpandDownload(round, compact)
}

func (m *tracedAPF) ApplyDownload(round int, x, global []float64) int64 {
	start := time.Now()
	m.rec.downloading(round, start)
	n := m.Manager.ApplyDownload(round, x, global)
	m.rec.span(spanApplyDownload, round, start)
	m.rec.applied(round)
	return n
}

// traceManager wraps the manager of the client behind ep; managers other
// than core.Manager get the plain wrapper.
func traceManager(mgr fl.SyncManager, ep *endpoint) fl.SyncManager {
	rec := managerRec{tr: ep.tr, client: ep.client, ep: ep}
	if apf, ok := mgr.(*core.Manager); ok {
		return &tracedAPF{Manager: apf, rec: rec}
	}
	return &tracedPlain{SyncManager: mgr, rec: rec}
}

// frameHead peeks a frame's kind and, for the kinds whose body starts with
// it, the round; -1 otherwise. The transport writes every frame in a
// single Write, so a Write buffer is always one whole frame.
func frameHead(frame []byte) (wire.Kind, int) {
	const headerLen = 10 // magic, version, kind, payload length
	kind := wire.FrameKind(frame)
	switch kind {
	case wire.KindUpdate, wire.KindGlobal, wire.KindSparseUpdate, wire.KindSparseGlobal, wire.KindPartialUpdate:
		if len(frame) >= headerLen+8 {
			return kind, checkpoint.NewReader(frame[headerLen : headerLen+8]).Int()
		}
	}
	return kind, -1
}

// endpoint is one peer's view of the network across all the connections it
// uses: a client (or a relay's upstream leg) on the dialling side, a tier
// on the accepting side. Timed runs keep only what the workload itself
// needs — the registration signal that staggers joins, byte totals, and
// the handle a churn client severs; traced runs add spans and frame taps.
type endpoint struct {
	client int     // launch slot; -1 for a tier or a relay's upstream leg
	tr     *tracer // nil on a timed run
	// edge marks the tier clients attach to (the flat server, a relay): its
	// aggregate writes are the server.fanout_write spans and the tapped
	// down frame.
	edge bool

	welcomed chan struct{} // closed when the first byte of the Welcome arrived
	once     sync.Once
	read     atomic.Int64
	written  atomic.Int64

	mu  sync.Mutex
	cur net.Conn // latest dialled connection (dialling side only)

	// Traced client state, touched only by the client's own goroutine.
	prepEnd    time.Time // PrepareUpload returned; zero once the frame is written
	waitFirst  time.Time
	waitLast   time.Time
	severedAt  time.Time
	resumeMark int64 // bytes() when the current reconnect dialled; -1 otherwise
}

func newEndpoint(client int, tr *tracer) *endpoint {
	return &endpoint{client: client, tr: tr, welcomed: make(chan struct{}), resumeMark: -1}
}

// dial is a transport.DialFunc.
func (e *endpoint) dial(network, addr string) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	resumed := e.cur != nil
	e.cur = c
	e.mu.Unlock()
	if resumed && e.tr != nil {
		e.resumeMark = e.bytes()
	}
	return &tapConn{Conn: c, ep: e}, nil
}

// sever closes the endpoint's current connection from the client's own
// goroutine (its OnRound hook), so the cut always lands between applying
// one round and pushing the next — a fault the seed alone determines.
func (e *endpoint) sever() {
	e.mu.Lock()
	c := e.cur
	e.mu.Unlock()
	if c != nil {
		e.severedAt = time.Now()
		_ = c.Close() // the client notices on its next write and redials
	}
}

// bytes returns everything read and written across the endpoint's
// connections.
func (e *endpoint) bytes() int64 { return e.read.Load() + e.written.Load() }

// flushWait closes the client.wait span of the round just applied: the
// time the client sat in Read between pushing its update and holding the
// whole aggregate. Called from the client's OnRound hook.
func (e *endpoint) flushWait(round int) {
	if e.tr == nil {
		return
	}
	if !e.waitFirst.IsZero() {
		e.tr.add(spanClientWait, e.waitFirst, e.waitLast, round, e.client)
		e.waitFirst = time.Time{}
	}
	if !e.severedAt.IsZero() {
		// First round applied since this client cut its own connection.
		e.tr.add(spanResume, e.severedAt, time.Now(), round, e.client)
		e.severedAt = time.Time{}
	}
}

// tapConn is a connection of an endpoint.
type tapConn struct {
	net.Conn
	ep *endpoint
}

func (c *tapConn) Read(p []byte) (int, error) {
	e := c.ep
	traced := e.tr != nil && e.client >= 0
	var start time.Time
	if traced {
		start = time.Now()
	}
	n, err := c.Conn.Read(p)
	e.read.Add(int64(n))
	if n > 0 {
		e.once.Do(func() { close(e.welcomed) })
		if traced {
			if e.waitFirst.IsZero() {
				e.waitFirst = start
			}
			e.waitLast = time.Now()
		}
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	e := c.ep
	if e.tr == nil {
		n, err := c.Conn.Write(p)
		e.written.Add(int64(n))
		return n, err
	}
	kind, round := frameHead(p)
	isUpdate := kind == wire.KindUpdate || kind == wire.KindSparseUpdate
	isGlobal := kind == wire.KindGlobal || kind == wire.KindSparseGlobal
	before := e.bytes()
	prepEnd := e.prepEnd
	if isUpdate {
		e.prepEnd = time.Time{} // a re-send after a reconnect is not an encode
	}
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	e.written.Add(int64(n))
	if err != nil {
		return n, err
	}
	t := e.tr
	switch {
	case isUpdate && e.client >= 0:
		if !prepEnd.IsZero() {
			t.add(spanClientEncode, prepEnd, start, round, e.client)
		}
		e.waitFirst = time.Time{} // reads from here on wait for this round's aggregate
		t.add(spanClientWrite, start, end, round, e.client)
	case isGlobal && e.edge:
		t.add(spanFanoutWrite, start, end, round, -1)
	}
	t.mu.Lock()
	t.frames++
	if round == t.tapRound {
		switch {
		case isUpdate:
			t.up = append(t.up, append([]byte(nil), p...))
		case isGlobal && t.down == nil && e.edge:
			t.down = append([]byte(nil), p...)
		}
	}
	if isUpdate && e.resumeMark >= 0 {
		// A reconnect costs everything between its dial and the re-sent
		// update: the Join out and the Welcome (with any replay) back.
		t.resumes++
		t.resumeBytes += before - e.resumeMark
		e.resumeMark = -1
	}
	t.mu.Unlock()
	return n, err
}

// tapListener hands every accepted connection to the tier's endpoint.
type tapListener struct {
	net.Listener
	ep *endpoint
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, ep: l.ep}, nil
}
