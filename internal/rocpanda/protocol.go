package rocpanda

import (
	"encoding/binary"
	"fmt"
)

// Client-server protocol tags (application tag space, >= 0).
const (
	tagWriteHdr = 1100 + iota
	tagWriteBlock
	tagWriteAck
	tagReadReq
	tagReadBlock
	tagReadDone
	tagSync
	tagSyncAck
	tagShutdown
	tagShutdownAck
	// tagAdopt tells a server that the sending client now belongs to it:
	// the client's original server died (or stopped responding) and the
	// coordinator's deterministic reassignment picked this one. The
	// server adds the client to its served set, so sync and shutdown
	// accounting include it (degraded mode).
	tagAdopt
)

// tagSyncAck and tagShutdownAck payload: empty on success, or one status
// byte reporting that the server failed to land some of its output (a
// block write or file close error). Clients fold the byte into the commit
// allreduce so no generation with missing data ever gets a manifest.
const ackDrainFailed = 1

// tagReadDone payload: one mode byte reporting whether the server served
// its share of the restart. Every share is served the same way, by
// catalog-planned direct offset reads (the catalog committed, or rebuilt
// from the files' directories).
const (
	doneModeIndexed = 1 // catalog-planned direct offset reads
	// doneModeFailed reports that the server could not serve its share at
	// all (e.g. the snapshot listing failed): the round completed — the
	// client is not left hanging — but shipped nothing from this server.
	// The client decides whether the restart is still complete (peers may
	// hold duplicate panes) or must fall back a generation.
	doneModeFailed = 2
)

// writeHdr announces a collective write from one client: nblocks block
// messages follow on tagWriteBlock.
type writeHdr struct {
	File    string
	Window  string
	Attr    string
	Time    float64
	Step    int32
	NBlocks int32
	Bytes   int64
}

// readReq asks the servers for the panes this client owns in a snapshot.
// Alive lists the server indices the clients believe are alive; the
// snapshot files are assigned round-robin over that set, so a degraded
// read still covers every file. Empty means all servers.
type readReq struct {
	File    string
	Window  string
	Attr    string
	PaneIDs []int32
	Alive   []int32
}

func encodeWriteHdr(h writeHdr) []byte {
	var b []byte
	b = putStr(b, h.File)
	b = putStr(b, h.Window)
	b = putStr(b, h.Attr)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(h.Time*1e9)))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Step))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.NBlocks))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Bytes))
	return b
}

func decodeWriteHdr(b []byte) (writeHdr, error) {
	var h writeHdr
	c := &byteCursor{b: b}
	h.File = c.str()
	h.Window = c.str()
	h.Attr = c.str()
	h.Time = float64(int64(c.u64())) / 1e9
	h.Step = int32(c.u32())
	h.NBlocks = int32(c.u32())
	h.Bytes = int64(c.u64())
	if c.err != nil {
		return h, fmt.Errorf("rocpanda: corrupt write header: %w", c.err)
	}
	return h, nil
}

func encodeReadReq(r readReq) []byte {
	var b []byte
	b = putStr(b, r.File)
	b = putStr(b, r.Window)
	b = putStr(b, r.Attr)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.PaneIDs)))
	for _, id := range r.PaneIDs {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Alive)))
	for _, s := range r.Alive {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	return b
}

func decodeReadReq(b []byte) (readReq, error) {
	var r readReq
	c := &byteCursor{b: b}
	r.File = c.str()
	r.Window = c.str()
	r.Attr = c.str()
	n := int(c.u32())
	if c.err == nil && n >= 0 && n <= len(b) {
		r.PaneIDs = make([]int32, n)
		for i := range r.PaneIDs {
			r.PaneIDs[i] = int32(c.u32())
		}
	}
	na := int(c.u32())
	if c.err == nil && na >= 0 && na <= len(b) {
		r.Alive = make([]int32, na)
		for i := range r.Alive {
			r.Alive[i] = int32(c.u32())
		}
	}
	if c.err != nil {
		return r, fmt.Errorf("rocpanda: corrupt read request: %w", c.err)
	}
	return r, nil
}

func putStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

type byteCursor struct {
	b   []byte
	off int
	err error
}

func (c *byteCursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if c.off+n > len(c.b) {
		c.err = fmt.Errorf("truncated at %d", c.off)
		return false
	}
	return true
}

func (c *byteCursor) u16() uint16 {
	if !c.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *byteCursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *byteCursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *byteCursor) str() string {
	n := int(c.u16())
	if !c.need(n) {
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}
