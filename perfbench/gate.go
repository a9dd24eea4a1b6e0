package main

import (
	"fmt"

	"github.com/meanet/meanet/internal/core"
)

// gate checks a measured window against the system's invariants. Each
// violated invariant is one line of the result; an empty result passes. A
// violation fails the run: it never only lowers a metric.
func (s *system) gate(win *window) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	tl, rep := win.tl, win.report

	// Predictions: bitwise equal to the in-process reference over the same
	// weights (extends the batched==serial and chain==in-process invariants).
	if tl.mismatches > 0 {
		failf("%d decisions differ from the in-process reference; first: %s", tl.mismatches, tl.firstDiff)
	}
	if tl.failedCalls > 0 || tl.failedImages > 0 {
		failf("%d failed calls, %d images failed or shed", tl.failedCalls, tl.failedImages)
	}

	// Exit accounting: main + extension + cloud == images.
	exits := rep.Exits[core.ExitMain] + rep.Exits[core.ExitExtension] + rep.Exits[core.ExitCloud]
	if exits != rep.N || rep.N != tl.images {
		failf("exits %d (main %d, ext %d, cloud %d), runtime count %d, images driven %d",
			exits, rep.Exits[core.ExitMain], rep.Exits[core.ExitExtension], rep.Exits[core.ExitCloud], rep.N, tl.images)
	}
	cloudExits := uint64(rep.Exits[core.ExitCloud])

	// Servers: what they served matches the cloud exits.
	d := serverDeltas(win)
	if s.chain != nil {
		if d[0].relayed != cloudExits || d[1].served != cloudExits {
			failf("chain: hop 1 relayed %d, hop 2 served %d, cloud exits %d", d[0].relayed, d[1].served, cloudExits)
		}
		ch := win.after.chain.ChainInstances - win.before.chain.ChainInstances
		if ch != cloudExits || cloudExits != uint64(tl.images) {
			failf("chain: %d instances crossed both hops, %d cloud exits, %d images", ch, cloudExits, tl.images)
		}
		if down := win.after.hopSent - win.before.hopSent; down != d[1].bytesIn {
			failf("chain: hop 1 sent %d bytes downstream, hop 2 received %d", down, d[1].bytesIn)
		}
	} else {
		var served uint64
		for _, sd := range d {
			served += sd.served
		}
		if served != cloudExits {
			failf("servers served %d instances, cloud exits %d", served, cloudExits)
		}
	}

	// Modeled bytes: Report.BytesSent == raw uploads × image bytes + feature
	// uploads × feature bytes.
	want := int64(rep.RawUploads)*s.cost.ImageBytes + int64(rep.FeatureUploads)*s.cost.FeatureBytes
	if rep.BytesSent != want {
		failf("report bytes %d, want %d raw × %d + %d features × %d", rep.BytesSent,
			rep.RawUploads, s.cost.ImageBytes, rep.FeatureUploads, s.cost.FeatureBytes)
	}

	// Wire bytes: what the edge transports wrote is what the first hop read.
	var firstIn uint64
	if s.chain != nil {
		firstIn = d[0].bytesIn
	} else {
		for _, sd := range d {
			firstIn += sd.bytesIn
		}
	}
	if sent := win.after.edgeSent - win.before.edgeSent; sent != firstIn {
		failf("edge transports sent %d bytes, first-hop servers received %d", sent, firstIn)
	}
	return bad
}

// serverDeltas are the servers' counters over the window, in hop order.
func serverDeltas(win *window) []serverTotals {
	out := make([]serverTotals, len(win.after.servers))
	for i, a := range win.after.servers {
		b := win.before.servers[i]
		out[i] = serverTotals{a.requests - b.requests, a.errors - b.errors, a.bytesIn - b.bytesIn,
			a.sheds - b.sheds, a.served - b.served, a.relayed - b.relayed}
	}
	return out
}
