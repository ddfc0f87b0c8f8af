package store

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"strings"

	"querylearn/internal/codec"
	"querylearn/internal/session"
)

// replayResult is what reading a journal yields: the surviving session
// states plus enough forensics for the store's Stats.
type replayResult struct {
	// snaps are the live sessions at the end of the journal, oldest first.
	snaps []session.Snapshot
	// events counts well-formed records, skipped those whose payload did
	// not decode or apply (schema drift, answers for a deleted session).
	events  int64
	skipped int64
	// goodBytes is the offset of the last intact record's end; everything
	// past it is a torn tail.
	goodBytes int64
	// tailErr is non-nil when the journal ended in a truncated or corrupt
	// record (wrapping errTornTail).
	tailErr error
	// bytesIn counts v2 payload bytes decoded, for the codec bytes-in
	// counter.
	bytesIn int64
}

// replayJournal folds a journal byte stream into final session snapshots
// using session.ApplyEvent — the same single replay rule everywhere. It
// never fails outright: a torn tail stops the read and is reported, and
// undecodable-but-intact records are counted and skipped.
func replayJournal(r io.Reader) replayResult {
	var res replayResult
	br := bufio.NewReaderSize(r, 1<<16)
	states := map[string]*session.Snapshot{}
	// One decoder per file: its intern table is the file's dictionary,
	// extended in record order. v1 and v2 records may interleave (a v1
	// journal appended to by a v2 daemon), dispatched per record below.
	dec := codec.NewDecoder()
	for {
		payload, err := readRecord(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			res.tailErr = err
			break
		}
		res.goodBytes += recordHeaderSize + int64(len(payload))
		var ev session.Event
		if codec.IsV2(payload) {
			res.bytesIn += int64(len(payload))
			ev2, isEvent, err := dec.DecodePayload(payload)
			if err != nil {
				// CRC-intact but undecodable (schema drift, a dictionary
				// record lost to skew): count and skip, like bad JSON.
				res.events++
				res.skipped++
				continue
			}
			if !isEvent {
				continue // dictionary record: table extended, no event
			}
			ev = ev2
			res.events++
		} else {
			res.events++
			if err := json.Unmarshal(payload, &ev); err != nil {
				res.skipped++
				continue
			}
		}
		if err := session.ApplyEvent(states, ev); err != nil {
			res.skipped++
		}
	}
	// Oldest session first. Sort pointers and copy each value out once:
	// a reflective sort of the values moves whole Snapshots on every swap.
	order := make([]*session.Snapshot, 0, len(states))
	for _, s := range states {
		order = append(order, s)
	}
	slices.SortFunc(order, func(a, b *session.Snapshot) int {
		if c := a.CreatedAt.Compare(b.CreatedAt); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	res.snaps = make([]session.Snapshot, len(order))
	for i, s := range order {
		res.snaps[i] = *s
	}
	return res
}
