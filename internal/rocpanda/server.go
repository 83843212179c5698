package rocpanda

import (
	"fmt"
	"sort"
	"strings"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/iosched"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
	"genxio/internal/trace"
)

// serverCrashed is the panic sentinel of an injected server crash; run
// recovers it and returns without draining or acknowledging anything,
// simulating process death.
type serverCrashed struct{}

// pendingBlock is one buffered data block awaiting drain.
type pendingBlock struct {
	fname string
	sets  []roccom.IOSet
	bytes int64
	time  float64
	step  int32
}

// readRound accumulates a collective read until all clients have asked.
// Requesters are tracked as a set of world ranks, not a raw count: after a
// failover a client may resend its request to a server that already has
// the first copy in flight, and counting that duplicate would start the
// round before every client has actually asked (a partial restart).
type readRound struct {
	attr    string
	wantAll map[int]int  // (paneID) -> world rank of requesting client
	reqers  map[int]bool // world ranks that have requested this round
	alive   []int        // server indices sharing the round (agreed by the clients)
}

// server is the Rocpanda server routine state (Figure 2's I/O processor).
type server struct {
	ctx        mpi.Ctx
	world      mpi.Comm
	idx        int
	numServers int
	myClients  []int // world ranks served by this server (writes, sync)
	allClients []int
	cfg        Config

	drain         *iosched.Engine       // the one drain path (drain.go)
	reads         map[string]*readRound // key: file|window|attr
	shutdown      int
	shutdownQueue []int // clients awaiting the shutdown ack

	mx srvMx
}

// srvMx holds a server's registry handles; every handle is a nil-safe
// no-op when Config.Metrics is unset. Handles are created once at Init so
// the hot paths never touch the registry map.
type srvMx struct {
	blocksBuffered *metrics.Counter
	blocksWritten  *metrics.Counter
	bytesWritten   *metrics.Counter
	filesCreated   *metrics.Counter
	filesSkipped   *metrics.Counter
	overflowStalls *metrics.Counter
	readsServed    *metrics.Counter
	adopted        *metrics.Counter
	bufBytesPeak   *metrics.Gauge
	drainSeconds   *metrics.Histogram
	scanSeconds    *metrics.Histogram
	flushSeconds   *metrics.Histogram // restart barrier time (serveRead)
	readErrors     *metrics.Counter   // failed listings and skipped files

	// Restart I/O-efficiency counters (committed vs rebuilt catalog).
	filesOpened      *metrics.Counter
	restartBytes     *metrics.Counter
	bytesWasted      *metrics.Counter
	catalogHits      *metrics.Counter
	catalogFallbacks *metrics.Counter
	checksumFails    *metrics.Counter

	// Replica retries (Config.ReplicationFactor > 1).
	replicaReads  *metrics.Counter
	repairedPanes *metrics.Counter

	// Delta snapshots (Config.DeltaSnapshots).
	chainDepth *metrics.Gauge
}

func newSrvMx(r *metrics.Registry) srvMx {
	return srvMx{
		blocksBuffered: r.Counter("rocpanda.server.blocks_buffered"),
		blocksWritten:  r.Counter("rocpanda.server.blocks_written"),
		bytesWritten:   r.Counter("rocpanda.server.bytes_written"),
		filesCreated:   r.Counter("rocpanda.server.files_created"),
		filesSkipped:   r.Counter("rocpanda.server.files_skipped"),
		overflowStalls: r.Counter("rocpanda.server.overflow_stalls"),
		readsServed:    r.Counter("rocpanda.server.reads_served"),
		adopted:        r.Counter("rocpanda.server.clients_adopted"),
		bufBytesPeak:   r.Gauge("rocpanda.server.buf_bytes_peak"),
		drainSeconds:   r.Histogram("rocpanda.server.drain_seconds", nil),
		scanSeconds:    r.Histogram("rocpanda.server.restart_scan_seconds", nil),
		flushSeconds:   r.Histogram("rocpanda.drain.flush_seconds", nil),
		readErrors:     r.Counter("rocpanda.read.errors"),

		filesOpened:      r.Counter("rocpanda.restart.files_opened"),
		restartBytes:     r.Counter("rocpanda.restart.bytes_read"),
		bytesWasted:      r.Counter("rocpanda.restart.bytes_wasted"),
		catalogHits:      r.Counter("rocpanda.restart.catalog_hits"),
		catalogFallbacks: r.Counter("rocpanda.restart.catalog_fallbacks"),
		checksumFails:    r.Counter("hdf.checksum_failures"),

		replicaReads:  r.Counter("rocpanda.restart.replica_reads"),
		repairedPanes: r.Counter("rocpanda.restart.repaired_panes"),

		chainDepth: r.Gauge("rocpanda.restart.chain_depth"),
	}
}

// run is the server service loop, structured exactly as Section 6.1
// describes: with dirty buffers it polls for new requests between block
// writes (responsiveness); with clean buffers it blocks in probe, leaving
// the CPU to the operating system. The drain engine decides what "dirty"
// means: its inline mode holds the buffered blocks for the loop to Step,
// while the writer pool (AsyncDrain) and write-through never leave any.
func (s *server) run() {
	// An injected crash (internal/faults) panics with serverCrashed from
	// deep inside the loop; catching it here and returning — no drain, no
	// acks, snapshot files left without directories — is how this backend
	// models the process dying.
	defer func() {
		r := recover()
		// Tear the drain engine down on every exit path: it terminates the
		// writer pool's simulation processes.
		s.drain.Close()
		if r != nil {
			if _, died := r.(serverCrashed); !died {
				panic(r)
			}
		}
	}()
	s.reads = make(map[string]*readRound)
	s.drain = newDrainEngine(s)
	for s.shutdown < len(s.myClients) {
		if s.drain.Crashed() {
			panic(serverCrashed{}) // a drain task died; the process dies with it
		}
		if s.drain.Pending() > 0 {
			if st, ok := s.world.Iprobe(mpi.AnySource, mpi.AnyTag); ok {
				s.handle(st)
			} else {
				s.drain.Step()
			}
			continue
		}
		s.handle(s.world.Probe(mpi.AnySource, mpi.AnyTag))
	}
	err := s.flushOutput()
	// Acknowledge all shutdowns only after everything is on disk; the ack
	// carries the drain outcome so the clients can refuse the commit.
	for _, dst := range s.shutdownQueue {
		s.world.Send(dst, tagShutdownAck, ackPayload(err))
	}
}

// ackPayload encodes a drain outcome for a sync or shutdown ack.
func ackPayload(err error) []byte {
	if err != nil {
		return []byte{ackDrainFailed}
	}
	return nil
}

// traceRank is this server's row in the phase timeline: servers sit after
// the client ranks so drain spans never overwrite a client's row.
func (s *server) traceRank() int { return len(s.allClients) + s.idx }

// handle dispatches one control message.
func (s *server) handle(st mpi.Status) {
	switch st.Tag {
	case tagWriteHdr:
		s.handleWrite(st.Source)
	case tagReadReq:
		s.handleReadReq(st.Source)
	case tagSync:
		s.recvEmpty(st.Source, tagSync, "sync request")
		err := s.flushOutput()
		s.world.Send(st.Source, tagSyncAck, ackPayload(err))
	case tagShutdown:
		s.recvEmpty(st.Source, tagShutdown, "shutdown request")
		s.shutdown++
		s.shutdownQueue = append(s.shutdownQueue, st.Source)
	case tagAdopt:
		s.recvEmpty(st.Source, tagAdopt, "adoption announcement")
		for _, c := range s.myClients {
			if c == st.Source {
				return // already ours
			}
		}
		s.myClients = append(s.myClients, st.Source)
		s.mx.adopted.Inc()
	default:
		panic(fmt.Sprintf("rocpanda: server %d got unexpected tag %d from %d", s.idx, st.Tag, st.Source))
	}
}

// recvExpect receives one protocol message that must carry a payload.
// The server panics on protocol damage (its process is useless once the
// stream is desynchronized), but always with enough context — server
// index, peer rank, tag — to attribute the failure; silently decoding an
// empty or truncated payload would surface as a confusing error far from
// the broken link.
func (s *server) recvExpect(src, tag int, what string) []byte {
	data, st := s.world.Recv(src, tag)
	if len(data) == 0 {
		panic(fmt.Sprintf("rocpanda: server %d: empty %s from rank %d (tag %d)", s.idx, what, st.Source, st.Tag))
	}
	return data
}

// recvEmpty receives one control message that must carry no payload.
func (s *server) recvEmpty(src, tag int, what string) {
	data, st := s.world.Recv(src, tag)
	if len(data) != 0 {
		panic(fmt.Sprintf("rocpanda: server %d: unexpected %d-byte payload on %s from rank %d (tag %d)",
			s.idx, len(data), what, st.Source, st.Tag))
	}
}

// handleWrite receives one client's header and blocks for a collective
// write and buffers (or writes through) the blocks.
func (s *server) handleWrite(src int) {
	data := s.recvExpect(src, tagWriteHdr, "write header")
	hdr, err := decodeWriteHdr(data)
	if err != nil {
		panic(fmt.Sprintf("rocpanda: server %d: corrupt write header from rank %d (tag %d): %v", s.idx, src, tagWriteHdr, err))
	}
	fnames := s.copyNames(hdr.File)
	for i := int32(0); i < hdr.NBlocks; i++ {
		payload := s.recvExpect(src, tagWriteBlock, "write block")
		sets, err := roccom.DecodeIOSets(payload)
		if err != nil {
			panic(fmt.Sprintf("rocpanda: server %d: corrupt write block %d/%d from rank %d (tag %d, %d bytes): %v",
				s.idx, i+1, hdr.NBlocks, src, tagWriteBlock, len(payload), err))
		}
		// One pending block per copy: the primary plus any replicas, all
		// through the same drain engine, so the buffered-byte and
		// written-byte tallies honestly show the write amplification.
		for _, fname := range fnames {
			blk := pendingBlock{fname: fname, sets: sets, bytes: int64(len(payload)), time: hdr.Time, step: hdr.Step}
			if !s.cfg.ActiveBuffering {
				s.enqueue(blk) // write-through: on disk before the ack
				continue
			}
			// Buffer at memory speed; the client's ack is delayed only by
			// this copy (and by a buffer over budget), not by file I/O.
			if s.cfg.MemcpyBW > 0 {
				s.ctx.Clock().Compute(float64(blk.bytes) / s.cfg.MemcpyBW)
			}
			s.mx.blocksBuffered.Inc()
			s.enqueue(blk)
			s.maybeCrash(faults.MidBuffer)
		}
	}
	s.world.Send(src, tagWriteAck, nil)
}

// fileName returns this server's file for a snapshot base name.
func (s *server) fileName(base string) string {
	return fmt.Sprintf("%s_s%03d.rhdf", base, s.idx)
}

// copyNames returns every file this server's blocks go to for a snapshot
// base: the primary, then ReplicationFactor-1 replicas homed round-robin
// at the *other* servers' file sets (base_sHHHrN.rhdf with H = (idx+N) mod
// numServers) so losing one server's files costs replicas of at most one
// copy of each pane. Each replica receives the exact block sequence of its
// primary, so the two files are byte-identical — which is what lets the
// restart read path and genxfsck -repair substitute one for the other
// without any translation.
func (s *server) copyNames(base string) []string {
	names := []string{s.fileName(base)}
	for r := 1; r < s.cfg.ReplicationFactor; r++ {
		home := (s.idx + r) % s.numServers
		names = append(names, fmt.Sprintf("%s_s%03dr%d.rhdf", base, home, r))
	}
	return names
}

// maybeCrash dies at point if the injected crash plan says so.
func (s *server) maybeCrash(point faults.CrashPoint) {
	if s.cfg.Crash.Hit(s.idx, point) {
		panic(serverCrashed{})
	}
}

// blockSink owns a set of open snapshot writers and appends blocks to
// them. Every drain state owns a private sink with its own clock identity
// and filesystem view (required by the simulated platforms): the server's
// own in the inline drain, each writer's in the pool. Sinks share no
// mutable state; their tallies go to the registry.
type blockSink struct {
	s        *server
	clock    rt.Clock
	fs       rt.FS
	writers  map[string]*hdf.Writer
	metaDone map[string]bool
}

func newBlockSink(s *server, clock rt.Clock, fs rt.FS) *blockSink {
	return &blockSink{
		s: s, clock: clock, fs: fs,
		writers:  make(map[string]*hdf.Writer),
		metaDone: make(map[string]bool),
	}
}

// write appends one block's datasets to the snapshot file, opening it
// first if needed. Opening a new snapshot file closes the previous
// snapshot's writers (collective writes are ordered, so once a newer
// snapshot's data drains, older files are complete). A file that was
// already created and closed (for example by one client's sync while
// another client's blocks were still inbound) is reopened in append mode —
// recreating it would truncate the blocks already on disk.
//
// Errors are returned, not panicked: a full disk on a server must surface
// through the sync acks and the clients' commit allreduce, not tear the
// whole run down (see noteDrainErr and Client.Sync).
func (k *blockSink) write(blk pendingBlock) error {
	s := k.s
	w, ok := k.writers[blk.fname]
	if !ok {
		if err := k.closeAll(genBase(blk.fname)); err != nil {
			return err
		}
		var err error
		if k.metaDone[blk.fname] {
			w, err = hdf.OpenAppend(k.fs, blk.fname, k.clock, s.cfg.Profile)
		} else {
			w, err = hdf.Create(k.fs, blk.fname, k.clock, s.cfg.Profile)
		}
		if err != nil {
			return fmt.Errorf("rocpanda: server %d: %w", s.idx, err)
		}
		if !k.metaDone[blk.fname] {
			s.mx.filesCreated.Inc()
		}
		w.Compress = s.cfg.Compress
		w.Metrics = s.cfg.Metrics
		k.writers[blk.fname] = w
	}
	if !k.metaDone[blk.fname] {
		s.maybeCrash(faults.BeforeMeta)
		k.metaDone[blk.fname] = true
		err := w.CreateDataset("_meta", hdf.U8, []int64{0}, []hdf.Attr{
			hdf.F64Attr("time", blk.time),
			hdf.I32Attr("step", blk.step),
			hdf.I32Attr("server", int32(s.idx)),
			hdf.I32Attr("nservers", int32(s.numServers)),
		}, nil)
		if err != nil {
			return fmt.Errorf("rocpanda: server %d writing %s meta: %w", s.idx, blk.fname, err)
		}
	}
	for _, set := range blk.sets {
		if err := w.CreateDataset(set.Name, set.Type, set.Dims, set.Attrs, set.Data); err != nil {
			return fmt.Errorf("rocpanda: server %d writing %s: %w", s.idx, blk.fname, err)
		}
	}
	s.mx.blocksWritten.Inc()
	s.mx.bytesWritten.Add(blk.bytes)
	return nil
}

// genBase strips a snapshot file name to its generation base (everything
// before the final "_sNNN[rM].rhdf" tail), the key sinks close by.
func genBase(fname string) string {
	if i := strings.LastIndexByte(fname, '_'); i >= 0 {
		return fname[:i]
	}
	return fname
}

// closeAll closes every open writer except those of the named generation
// base ("" closes everything), returning the first failure (all affected
// writers are closed and forgotten regardless — a handle that failed its
// close is not worth retrying). Closing by generation, not by file, keeps
// a generation's primary and replica writers open side by side while its
// copies interleave; collective writes are still ordered across
// generations, so once a newer snapshot's data drains, the older
// generation's files are complete and can close.
func (k *blockSink) closeAll(exceptGen string) error {
	names := make([]string, 0, len(k.writers))
	for name := range k.writers {
		if exceptGen == "" || genBase(name) != exceptGen {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var first error
	for _, name := range names {
		if err := k.writers[name].Close(); err != nil && first == nil {
			first = err
		}
		delete(k.writers, name)
	}
	return first
}

// handleReadReq accumulates one client's restart request; when all clients
// have asked, the server reads its share of the snapshot files and ships
// the requested blocks to their owners (Section 4.1's restart protocol).
func (s *server) handleReadReq(src int) {
	data := s.recvExpect(src, tagReadReq, "read request")
	req, err := decodeReadReq(data)
	if err != nil {
		panic(fmt.Sprintf("rocpanda: server %d: corrupt read request from rank %d (tag %d): %v", s.idx, src, tagReadReq, err))
	}
	key := req.File + "|" + req.Window + "|" + req.Attr
	round, ok := s.reads[key]
	if !ok {
		round = &readRound{attr: req.Attr, wantAll: make(map[int]int), reqers: make(map[int]bool)}
		s.reads[key] = round
	}
	for _, id := range req.PaneIDs {
		round.wantAll[int(id)] = src
	}
	// The clients agree on the surviving-server set before asking (an
	// allreduce in ReadAttribute), so every request carries the same
	// alive list; keep the intersection anyway so a disagreement can only
	// shrink a server's share, never leave a file read twice.
	if len(round.reqers) == 0 {
		for _, a := range req.Alive {
			round.alive = append(round.alive, int(a))
		}
	} else if len(req.Alive) > 0 {
		keep := make(map[int]bool, len(req.Alive))
		for _, a := range req.Alive {
			keep[int(a)] = true
		}
		var merged []int
		for _, a := range round.alive {
			if keep[a] {
				merged = append(merged, a)
			}
		}
		round.alive = merged
	}
	// Count distinct requesters, not messages: a failed-over client can
	// resend the same request (its timeout fired while this server was
	// slow, not dead), and treating the duplicate as a new requester
	// would start the round before the remaining clients asked.
	round.reqers[src] = true
	if len(round.reqers) < len(s.allClients) {
		return
	}
	delete(s.reads, key)
	s.serveRead(req.File, req.Window, round)
}

func (s *server) serveRead(file, window string, round *readRound) {
	// Buffered data must be on disk before a restart read of an
	// uncommitted generation. A committed one needs no barrier: its commit
	// record exists only because the Sync flush already put every block of
	// it on disk — so reading generation g proceeds immediately, its
	// iosched read instance admitted while the drain instance may still be
	// writing back generation g+1 (the scheduler's cross-engine overlap).
	// When the flush does run it is write-back cost, not read cost: it
	// gets its own histogram, and the round clock (restart_scan_seconds)
	// starts only after it — so with async drain enabled the restart round
	// time never silently absorbs the drain barrier.
	if _, err := snapshot.Load(s.ctx.FS(), file); err != nil {
		flushT0 := s.ctx.Clock().Now()
		s.flushOutput()
		s.mx.flushSeconds.Observe(s.ctx.Clock().Now() - flushT0)
	}

	scanT0 := s.ctx.Clock().Now()
	defer func() { s.mx.scanSeconds.Observe(s.ctx.Clock().Now() - scanT0) }()

	// Planned files are dealt round-robin over the servers sharing the
	// round — all of them normally, the agreed survivors in degraded mode.
	alive := round.alive
	if len(alive) == 0 {
		alive = make([]int, s.numServers)
		for i := range alive {
			alive[i] = i
		}
	}
	pos := -1
	for i, a := range alive {
		if a == s.idx {
			pos = i
		}
	}
	mode := byte(doneModeIndexed) // outside the alive set: nothing to serve
	if pos >= 0 {
		mode = s.serveShare(file, window, round, alive, pos)
	}
	for _, c := range s.allClients {
		s.world.Send(c, tagReadDone, []byte{mode})
	}
}

// serveShare serves this server's share of a restart round and returns the
// done-mode byte. Every round takes the same path: the round's block
// catalogs (roundCatalogs) resolve each requested pane to exactly one
// generation — the newest chain link holding it — each catalog's PlanReads
// picks one copy of it (primaries before replicas), and the planned files,
// in (chain, plan) order, are dealt round-robin over the servers sharing
// the round. Every server derives the same deal from the same catalogs, so
// the servers partition the planned files without communicating, and a
// file that holds no requested pane is never opened — only the extents a
// restart needs are read. A planned file that fails its open, read or CRC
// check is skipped whole and its panes retried against their other copies
// (recoverPanes), so a lost primary costs replica reads, not the
// generation. A rebuilt catalog encodes like the committed one, so
// servers disagreeing about the blob's health still deal alike; only a
// fault that hides a file from one server's rebuild can leave a pane
// unshipped, and the clients' completeness check then falls back a
// generation — never restores wrong data.
//
// A round whose catalogs cannot be had (a failed listing, an unloadable
// chain link) degrades instead of killing the server: the round is
// reported failed (doneModeFailed) so no client is left hanging, and the
// clients decide whether peers covered the panes or a generation fallback
// is needed.
func (s *server) serveShare(file, window string, round *readRound, alive []int, pos int) byte {
	cats, rebuilt, err := s.roundCatalogs(file)
	if err != nil {
		s.noteReadErr()
		return doneModeFailed
	}
	wanted := make(map[int]bool, len(round.wantAll))
	for id := range round.wantAll {
		wanted[id] = true
	}
	assign := catalog.ResolvePanes(cats, window, wanted)
	var items []readItem
	j := 0
	for gi, cat := range cats {
		for _, plan := range cat.PlanReads(window, assign[gi]) {
			if j%len(alive) == pos {
				items = append(items, readItem{plan: plan, cat: cat})
			}
			j++
		}
	}
	s.runReadPool(window, round, items)
	if rebuilt {
		s.mx.catalogFallbacks.Inc()
	} else {
		s.mx.catalogHits.Inc()
	}
	return doneModeIndexed
}

// roundCatalogs returns the block catalogs a restart round of file reads
// from, newest first. A delta generation's are its chain's links: a delta
// file does not spell out the panes it inherits, so an unloadable link
// fails the round and the clients' completeness check sends the restore
// walk back past the whole chain. Any other generation has one catalog:
// the committed blob, or — when the blob is missing or damaged (rebuilt
// reports it) — one rebuilt from the RHDF files' own directories, by the
// walk snapshot.Commit runs and in its lexical listing order, so an intact
// generation's rebuild encodes byte-identically to the blob it replaces.
// Either way a listed file the catalog does not index (a server wrongly
// declared dead renamed its file into place after the commit) joins by the
// same walk; a file whose directory cannot be read is skipped, since it
// has no panes to plan.
func (s *server) roundCatalogs(file string) (cats []*catalog.Catalog, rebuilt bool, err error) {
	fsys := s.ctx.FS()
	if m, err := snapshot.Load(fsys, file); err == nil && m.ChainDepth > 0 {
		chain, err := snapshot.LoadChain(fsys, file)
		if err != nil {
			return nil, false, err
		}
		s.mx.chainDepth.SetMax(float64(len(chain) - 1))
		return snapshot.ChainCatalogs(chain), false, nil
	}
	names, err := fsys.List(file + "_s")
	if err != nil {
		return nil, false, err
	}
	cat, err := catalog.Load(fsys, file)
	if err != nil {
		cat, rebuilt = &catalog.Catalog{}, true
	}
	indexed := make(map[string]bool, len(cat.Files))
	for _, name := range cat.Files {
		indexed[name] = true
	}
	for _, name := range names {
		if indexed[name] || !strings.HasSuffix(name, ".rhdf") {
			continue
		}
		_, _, sets, err := hdf.ScanDir(fsys, name)
		if err != nil {
			s.skipFile(0)
			continue
		}
		cat.AddFile(name, sets)
	}
	return []*catalog.Catalog{cat}, rebuilt, nil
}

// paneShip is one pane's ship-ready payload: assembled datasets destined
// for the owning client. Building one never sends anything — the server
// goroutine owns all network traffic (simulated endpoints charge the
// sending process).
type paneShip struct {
	owner int
	sets  []roccom.IOSet
}

// sendShips ships assembled pane payloads to their owners, in order.
func (s *server) sendShips(ships []paneShip) {
	for _, sh := range ships {
		s.world.Send(sh.owner, tagReadBlock, roccom.EncodeIOSets(sh.sets))
		s.mx.readsServed.Inc()
	}
}

// skipFile records one unreadable or damaged snapshot file skipped during
// a restart, with whatever was already read from it accounted as wasted —
// bytes_read counts only files that shipped.
func (s *server) skipFile(wasted int64) {
	s.mx.filesSkipped.Inc()
	s.noteReadErr()
	if wasted > 0 {
		s.mx.bytesWasted.Add(wasted)
	}
}

// noteReadErr counts one read-path failure (a failed listing, or a file
// skipped mid-round).
func (s *server) noteReadErr() { s.mx.readErrors.Inc() }

// noteRestartBytes accounts payload bytes of a file whose panes shipped.
func (s *server) noteRestartBytes(n int64) {
	if n > 0 {
		s.mx.restartBytes.Add(n)
	}
}

// assembleShips verifies one planned file's read buffers and groups its
// entries into per-pane payloads, in plan (entry) order. ok is false when
// anything is damaged — CRC mismatch (crcFailed then reports it), an
// extent outside its run, a bad inflate, a short payload: the whole file
// must be skipped with nothing shipped, so a restart never mixes verified
// and unverified panes from one file. Pure with respect to the server (safe to call with
// worker-filled buffers after the handoff).
func assembleShips(plan catalog.FilePlan, runs []catalog.Run, bufs [][]byte, round *readRound) (ships []paneShip, crcFailed, ok bool) {
	stored := make([][]byte, len(plan.Entries))
	ri := 0
	for i := range plan.Entries {
		e := &plan.Entries[i]
		for ri < len(runs) && e.Offset >= runs[ri].Offset+runs[ri].Length {
			ri++
		}
		if ri == len(runs) || e.Offset < runs[ri].Offset || e.Offset+e.Length > runs[ri].Offset+runs[ri].Length {
			return nil, false, false
		}
		b := bufs[ri][e.Offset-runs[ri].Offset : e.Offset-runs[ri].Offset+e.Length]
		if e.HasCRC && hdf.Checksum(b) != e.CRC {
			// The snapshot was damaged after commit; skip the whole file
			// so the restart recovers the panes elsewhere or falls back a
			// generation.
			return nil, true, false
		}
		stored[i] = b
	}
	panes := make(map[int]*paneShip)
	var order []int
	for i := range plan.Entries {
		e := &plan.Entries[i]
		logical := int64(e.Type.Size())
		for _, d := range e.Dims {
			logical *= d
		}
		data := stored[i]
		if e.Compressed {
			var err error
			if data, err = hdf.InflateStored(data, logical); err != nil {
				return nil, false, false
			}
		} else if int64(len(data)) != logical {
			return nil, false, false
		}
		pd, seen := panes[e.Pane]
		if !seen {
			pd = &paneShip{owner: round.wantAll[e.Pane]}
			panes[e.Pane] = pd
			order = append(order, e.Pane)
		}
		pd.sets = append(pd.sets, roccom.IOSet{Name: e.Name, Type: e.Type, Dims: e.Dims, Attrs: e.Attrs, Data: data})
	}
	ships = make([]paneShip, 0, len(order))
	for _, id := range order {
		ships = append(ships, *panes[id])
	}
	return ships, false, true
}

// recoverPanes retries every pane of a failed planned file against the
// generation's other copies, best-first (primaries before replicas, per
// catalog.PaneSources), shipping each pane from the first copy that
// verifies end to end. The walk is deterministic — sorted panes, ordered
// sources, a shared bad-file set — so every server makes the same
// recovery decisions. A pane with no good copy anywhere is simply not
// shipped: the clients then report the snapshot incomplete and the restore
// walk falls back a generation, which is exactly the all-copies-bad
// semantics the replica layer promises. It reports how many panes it
// recovered (and shipped).
func (s *server) recoverPanes(cat *catalog.Catalog, window string, round *readRound, plan catalog.FilePlan, badFiles map[string]bool) int {
	seen := make(map[int]bool)
	var panes []int
	for i := range plan.Entries {
		if p := plan.Entries[i].Pane; !seen[p] {
			seen[p] = true
			panes = append(panes, p)
		}
	}
	sort.Ints(panes)
	recovered := 0
	for _, pane := range panes {
		for _, src := range cat.PaneSources(window, pane) {
			if badFiles[src.File] {
				continue
			}
			ok, opened := s.tryPaneSource(src, round)
			if !opened {
				badFiles[src.File] = true
			}
			if ok {
				recovered++
				s.mx.repairedPanes.Inc()
				if catalog.ReplicaRank(src.File) > 0 {
					s.mx.replicaReads.Inc()
				}
				break
			}
		}
	}
	return recovered
}

// tryPaneSource attempts one pane's datasets from one copy: open, read the
// coalesced extents, verify, inflate, ship. opened=false means the file
// itself is unreachable (blacklist it); ok=false with opened=true means
// this copy's bytes are damaged — other panes of the file may still be
// fine, so only the attempted read is charged as wasted.
func (s *server) tryPaneSource(plan catalog.FilePlan, round *readRound) (ok, opened bool) {
	readT0 := s.ctx.Clock().Now()
	f, err := s.ctx.FS().Open(plan.File)
	if err != nil {
		s.skipFile(0)
		return false, false
	}
	defer f.Close()
	s.mx.filesOpened.Inc()

	runs := catalog.Coalesce(plan.Entries, 0)
	bufs := make([][]byte, len(runs))
	var read int64
	for i, run := range runs {
		bufs[i] = make([]byte, run.Length)
		if _, err := f.ReadAt(bufs[i], run.Offset); err != nil {
			s.skipFile(read)
			return false, true
		}
		read += run.Length
	}
	s.cfg.Trace.Record(s.traceRank(), trace.PhaseRead, readT0, s.ctx.Clock().Now())

	ships, crcFailed, aok := assembleShips(plan, runs, bufs, round)
	if crcFailed {
		s.mx.checksumFails.Inc()
	}
	if !aok {
		s.skipFile(read)
		return false, true
	}
	s.noteRestartBytes(read)
	s.sendShips(ships)
	return true, true
}
