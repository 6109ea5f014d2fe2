package flowsim

import (
	"math"

	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
)

// simulateRescanTimed is the original full-rescan formulation of the
// exact kernel, kept verbatim as the executable specification
// SimulateOpt is pinned against: every event it resets and rescans
// every flow and every link in the machine. Equivalence tests compare
// the two bit-for-bit (Result, FlowTimes, link telemetry) at every
// gang width; the BenchmarkFlowsimDirectSend legs measure the speedup.
func simulateRescanTimed(top torus.Topology, p torus.Params, msgs []torus.Message, u *telemetry.LinkUsage, ft *FlowTimes) Result {
	type flow struct {
		links     []int
		remaining float64
		rate      float64
		frozen    bool
		done      bool
	}
	flows := make([]flow, 0, len(msgs))
	var overheadMax float64
	nlinks := top.NumLinks()
	linkFlows := make([][]int, nlinks)
	var activeOnLink []int32 // live unfinished-flow count per link (telemetry only)
	var msgOf []int          // flow index -> msgs index (timing only)
	if u != nil {
		u.Capacity = p.LinkBandwidth
		activeOnLink = make([]int32, nlinks)
	}
	if ft != nil {
		ft.Done = make([]float64, len(msgs))
		msgOf = make([]int, 0, len(msgs))
	}
	for mi, m := range msgs {
		oh := p.SendOverhead + p.RecvOverhead
		if oh > overheadMax {
			overheadMax = oh
		}
		if m.Src == m.Dst || m.Bytes == 0 {
			if ft != nil {
				ft.Done[mi] = oh + p.RouteLatency
			}
			continue // pure-overhead flow
		}
		var links []int
		top.Route(m.Src, m.Dst, func(l int) { links = append(links, l) })
		fi := len(flows)
		flows = append(flows, flow{links: links, remaining: float64(m.Bytes)})
		if ft != nil {
			msgOf = append(msgOf, mi)
		}
		for _, l := range links {
			linkFlows[l] = append(linkFlows[l], fi)
		}
		if u != nil {
			for _, l := range links {
				u.RecordLink(l, m.Bytes)
				activeOnLink[l]++
			}
		}
	}

	res := Result{Completions: len(flows)}
	now := 0.0
	active := len(flows)
	avail := make([]float64, nlinks)
	unfrozen := make([]int, nlinks)
	for active > 0 {
		for l := range avail {
			avail[l] = p.LinkBandwidth
			unfrozen[l] = 0
		}
		for fi := range flows {
			f := &flows[fi]
			f.frozen = f.done
			if !f.done {
				for _, l := range f.links {
					unfrozen[l]++
				}
			}
		}
		remainingUnfrozen := active
		for remainingUnfrozen > 0 {
			share := math.Inf(1)
			bott := -1
			for l := range avail {
				if unfrozen[l] == 0 {
					continue
				}
				if s := avail[l] / float64(unfrozen[l]); s < share {
					share, bott = s, l
				}
			}
			if bott < 0 {
				break
			}
			u.AddBottleneck(bott)
			for _, fi := range linkFlows[bott] {
				f := &flows[fi]
				if f.frozen {
					continue
				}
				f.frozen = true
				f.rate = share
				remainingUnfrozen--
				for _, l := range f.links {
					avail[l] -= share
					if avail[l] < 0 {
						avail[l] = 0
					}
					unfrozen[l]--
				}
			}
		}
		res.Events++

		dt := math.Inf(1)
		for fi := range flows {
			f := &flows[fi]
			if f.done || f.rate <= 0 {
				continue
			}
			if d := f.remaining / f.rate; d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			break
		}
		now += dt
		if u != nil {
			for l, n := range activeOnLink {
				if n > 0 {
					u.AddBusy(l, dt)
				}
			}
		}
		for fi := range flows {
			f := &flows[fi]
			if f.done {
				continue
			}
			f.remaining -= f.rate * dt
			if f.remaining <= 1e-9 {
				f.done = true
				active--
				if ft != nil {
					ft.Done[msgOf[fi]] = now + p.SendOverhead + p.RecvOverhead + p.RouteLatency
				}
				if u != nil {
					for _, l := range f.links {
						activeOnLink[l]--
					}
				}
			}
		}
	}
	res.Time = now + overheadMax + p.RouteLatency
	if ft != nil {
		for fi := range flows {
			if !flows[fi].done {
				ft.Done[msgOf[fi]] = res.Time
			}
		}
	}
	u.SetDuration(res.Time)
	return res
}
