package flowsim

import (
	"math"
	mbits "math/bits"
	"sort"

	"bgpvr/internal/par"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
)

// bShift buckets shares by the top 64-bShift bits of their float64 bit
// pattern (sign always 0: shares are non-negative), so bucket indices
// order exactly like share values. 48 keeps 4 mantissa bits, i.e.
// buckets ~6% wide in share value: coarse enough that many touches
// leave a link's share inside its current bucket (refiles are the
// dominant bookkeeping cost), fine enough that the lowest occupied
// bucket stays small to scan, and the whole structure (2^16 buckets)
// stays cache-resident.
const (
	bShift   = 48
	nBuckets = 1 << (64 - bShift)
)

// dtSlack pads the completion-time skip bound: a candidate with
// remaining >= dt*sel*dtSlack satisfies fl(remaining/sel) > dt under
// any round-to-nearest outcome (the pad dwarfs the few ulps the
// multiply and divide can each contribute), so skipping its division
// can never change the running minimum.
const dtSlack = 1.000000000001

// linkState packs each link's max-min scratch state into 16 bytes: the
// freeze inner loop reads and writes all three fields per touched link,
// so density here is memory traffic in the hottest loop of the kernel.
// The share itself is not cached — the pop scan recomputes the exact
// avail/unfrozen division for the handful of links it examines, which
// is far cheaper than dividing on every one of the billions of touches.
type linkState struct {
	avail    float64 // bandwidth not yet claimed by frozen flows
	unfrozen int32   // live flows not yet frozen this event
	inBucket int32   // bucket currently holding this link's valid entry
}

// groupState likewise packs each same-route group's hot state: the
// freeze pass reads front/end/frozen and writes rate for every group
// on the bottleneck's list, round after round.
type groupState struct {
	rate       float64 // members' common rate (stale until refrozen)
	front, end int32   // live members are mRemaining[front:end]
	frozen     bool
}

// roundGroup is one group frozen in the current freeze round, with its
// live-member weight (members times route multiplicity).
type roundGroup struct{ g, k int32 }

// Sharded sections engage only above these work sizes: below them the
// serial loop beats a gang rendezvous. The thresholds never affect
// results — the serial and sharded forms apply identical updates in
// identical per-link order — so the equivalence tests lower them to
// exercise every sharded path on small configs.
var (
	shardMinTouches = 2048 // freeze round: route entries touched
	shardMinLinks   = 4096 // event reset: active links refiled
	shardMinFlows   = 8192 // advance: live members drained
	shardMinScan    = 4096 // pop sweep: bucket entries scanned
)

// simulateFlex is the sparse max-min kernel behind SimulateOpt. Beyond
// exact max-min on physical links it supports (a) per-link capacities
// and weighted route entries, which is what the clustered
// approximation simulates on (rg != nil), and (b) gang-sharded
// per-round work, partitioned by link index modulo the gang width with
// worker-local refile buffers merged in deterministic order. With
// rg == nil and any worker count it reproduces the full-rescan
// specification bit-for-bit (the equivalence suite pins this).
func simulateFlex(top torus.Topology, p torus.Params, msgs []torus.Message,
	u *telemetry.LinkUsage, ft *FlowTimes, workers int, rg *torus.Regions, info *ApproxInfo) Result {
	var overheadMax float64
	nlinks := top.NumLinks()
	var capOf []float64
	if rg != nil {
		u = nil // model links do not name physical links
		nlinks = rg.NumModelLinks()
		capOf = rg.ModelCapacity(p)
	}
	if u != nil {
		u.Capacity = p.LinkBandwidth
	}
	if ft != nil {
		ft.Done = make([]float64, len(msgs))
	}

	// Group messages by (src, dst) endpoint pair: deterministic
	// dimension-ordered routing gives every flow of a pair the identical
	// link list, so max-min fairness freezes them in the same round at
	// the same share in every event — identical rates always. The whole
	// group can therefore be frozen with one pass over its route, and
	// because all live members drain at one common rate their remaining
	// bytes keep the order they started in: members are sorted by size
	// ascending once, and completions simply advance a per-group front.
	// In approx mode each group's physical route is mapped hop by hop
	// into model-link space, with consecutive hops through the same
	// transit aggregate merged into one weighted entry.
	gidOf := make(map[int64]int32, len(msgs))
	var routes [][]int32   // per-group model link list
	var mults [][]int32    // per-entry weights (nil in exact mode)
	var memRem [][]float64 // per-group member sizes (pre-flattening)
	var memMsg [][]int32   // per-group member msgs indices
	var groupSrc, groupDst []int32
	var groupBytes []float64 // per-group payload, for the physical bound
	liveOnLink := make([]int32, nlinks)
	linkGroups := make([][]int32, nlinks)
	nflows := 0
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
		key := int64(m.Src)<<32 | int64(m.Dst)
		g, ok := gidOf[key]
		if !ok {
			g = int32(len(routes))
			gidOf[key] = g
			var links, ws []int32
			if rg != nil {
				links, ws = rg.ModelRoute(m.Src, m.Dst)
				mults = append(mults, ws)
				groupBytes = append(groupBytes, 0)
			} else {
				top.Route(m.Src, m.Dst, func(l int) { links = append(links, int32(l)) })
			}
			routes = append(routes, links)
			memRem = append(memRem, nil)
			memMsg = append(memMsg, nil)
			groupSrc = append(groupSrc, int32(m.Src))
			groupDst = append(groupDst, int32(m.Dst))
			for _, l := range links {
				linkGroups[l] = append(linkGroups[l], g)
			}
		}
		memRem[g] = append(memRem[g], float64(m.Bytes))
		memMsg[g] = append(memMsg[g], int32(mi))
		if rg != nil {
			for j, l := range routes[g] {
				liveOnLink[l] += mults[g][j]
			}
			groupBytes[g] += float64(m.Bytes)
		} else {
			for _, l := range routes[g] {
				liveOnLink[l]++
				u.RecordLink(int(l), m.Bytes)
			}
		}
		nflows++
	}
	ngroups := len(routes)
	mOff := make([]int32, ngroups+1)
	for g := 0; g < ngroups; g++ {
		mOff[g+1] = mOff[g] + int32(len(memRem[g]))
	}
	mRemaining := make([]float64, nflows)
	mMsgOf := make([]int32, nflows)
	totalRoute := 0
	for g := 0; g < ngroups; g++ {
		rs, ms := memRem[g], memMsg[g]
		sort.Sort(&memberSort{rs, ms})
		copy(mRemaining[mOff[g]:], rs)
		copy(mMsgOf[mOff[g]:], ms)
		totalRoute += len(routes[g])
	}

	// The certifiable lower bound: every physical link must carry its
	// routed payload at no more than its bandwidth, whatever the
	// sharing discipline. Group order is deterministic, so the folded
	// sums (and thus the reported bound) are reproducible.
	lbNow := 0.0
	if rg != nil {
		loadPhys := make([]float64, top.NumLinks())
		for g := 0; g < ngroups; g++ {
			b := groupBytes[g]
			top.Route(int(groupSrc[g]), int(groupDst[g]), func(l int) {
				loadPhys[l] += b
			})
		}
		for _, b := range loadPhys {
			if t := b / p.LinkBandwidth; t > lbNow {
				lbNow = t
			}
		}
	}

	simPhase.Start(int64(nflows))
	defer simPhase.End()
	cSimFlows.Add(int64(nflows))

	res := Result{Completions: nflows}
	now := 0.0
	active := nflows
	// Sparse active sets: the groups still in flight and the links they
	// cross, both compacted in place as members complete. Flows never
	// start mid-phase, so both sets only shrink; the scratch arrays stay
	// full-size but only active entries are ever read or reset, so one
	// call allocates a fixed number of slices regardless of how many
	// events it processes.
	activeGroups := make([]int32, ngroups)
	for g := range activeGroups {
		activeGroups[g] = int32(g)
	}
	activeLinks := make([]int32, 0, nlinks)
	for l := 0; l < nlinks; l++ {
		if liveOnLink[l] > 0 {
			activeLinks = append(activeLinks, int32(l))
		}
	}
	if info != nil {
		info.UsedLinks = len(activeLinks)
	}
	gs := make([]groupState, ngroups)
	for g := range gs {
		gs[g] = groupState{front: mOff[g], end: mOff[g+1]}
	}
	ls := make([]linkState, nlinks)
	// Live counts are small integers, so exact mode files event resets
	// from a precomputed table of fl(BW/n) buckets; the capacity-aware
	// path divides per active link instead (capacities vary per link).
	var bucketTab []int32
	if capOf == nil {
		maxLive := int32(0)
		for _, n := range liveOnLink {
			if n > maxLive {
				maxLive = n
			}
		}
		bucketTab = make([]int32, maxLive+1)
		for n := int32(1); n <= maxLive; n++ {
			bucketTab[n] = int32(math.Float64bits(p.LinkBandwidth/float64(n)) >> bShift)
		}
	}

	// Gang sharding: links are owned by worker (link index mod width),
	// and each worker gets a CSR view of every group's route restricted
	// to its links, built once. Per-round closures are allocated once
	// and read the round's parameters through rnd.
	if workers > 1 && totalRoute < shardMinTouches && nflows < shardMinFlows {
		workers = 1
	}
	var gang *par.Gang
	var swLinks, swMults [][]int32
	var swOff [][]int32
	if workers > 1 {
		swLinks = make([][]int32, workers)
		swMults = make([][]int32, workers)
		swOff = make([][]int32, workers)
		for w := 0; w < workers; w++ {
			swOff[w] = make([]int32, ngroups+1)
		}
		for g := 0; g < ngroups; g++ {
			for j, l := range routes[g] {
				w := int(l) % workers
				swLinks[w] = append(swLinks[w], l)
				if mults != nil {
					swMults[w] = append(swMults[w], mults[g][j])
				}
			}
			for w := 0; w < workers; w++ {
				swOff[w][g+1] = int32(len(swLinks[w]))
			}
		}
		gang = par.NewGang(workers)
		defer gang.Close()
	}
	var rnd struct {
		sel    float64
		groups []roundGroup
		links  []int32 // reset: the active links being refiled
		nGrp   int     // advance: live prefix of activeGroups
		dt     float64
		scan   []int32 // pop sweep: the bucket list being scanned
		scanB  int32   // pop sweep: the bucket being scanned
	}
	// Per-worker deterministic-merge scratch: refile pushes buffered as
	// (bucket<<32 | link), event-reset buckets, advance done-counts,
	// pop-sweep survivor counts and per-worker running minima.
	refBuf := make([][]int64, workers)
	fileB := make([]int32, len(activeLinks))
	doneK := make([]int32, ngroups)
	scanWr := make([]int32, workers)
	scanBestL := make([]int, workers)
	scanBestS := make([]float64, workers)
	freezeShard := func(w int) {
		lks, off := swLinks[w], swOff[w]
		var mls []int32
		if mults != nil {
			mls = swMults[w]
		}
		sel := rnd.sel
		buf := refBuf[w][:0]
		for _, rgp := range rnd.groups {
			g, k := rgp.g, rgp.k
			for j := off[g]; j < off[g+1]; j++ {
				l := lks[j]
				st := &ls[l]
				a := st.avail
				kk := k
				if mls != nil {
					// Weighted (approx) entries claim their whole
					// share in one multiply — aggregates can carry
					// thousands of weight units, and approx mode has
					// no rescan-reference bit pattern to preserve.
					kk *= mls[j]
					a -= sel * float64(kk)
				} else {
					for i := int32(0); i < kk; i++ {
						a -= sel
					}
				}
				if a < 0 {
					a = 0
				}
				st.avail = a
				if n := st.unfrozen - kk; n > 0 {
					st.unfrozen = n
					// Dip filter, division- and table-free: the filed
					// bucket's floor times the live count bounds the
					// avail below which the share could have dipped
					// out of its bucket; the dtSlack-sized guard
					// absorbs both roundings, so no genuine dip
					// escapes. Only near-floor touches divide.
					floor := math.Float64frombits(uint64(st.inBucket) << bShift)
					if a < floor*float64(n)*dtSlack {
						s := a / float64(n)
						if db := int32(math.Float64bits(s) >> bShift); db < st.inBucket {
							st.inBucket = db
							buf = append(buf, int64(db)<<32|int64(l))
						}
					}
				} else {
					st.unfrozen = 0
				}
			}
		}
		refBuf[w] = buf
	}
	// tile computes worker w's contiguous [lo, hi) of an n-sized index
	// space, the par.Tiles decomposition without the allocation (the
	// shard closures run once per event round).
	tile := func(n, w int) (int, int) {
		q, r := n/workers, n%workers
		lo := w*q + min(w, r)
		hi := lo + q
		if w < r {
			hi++
		}
		return lo, hi
	}
	resetShard := func(w int) {
		lo, hi := tile(len(rnd.links), w)
		for pos := lo; pos < hi; pos++ {
			l := rnd.links[pos]
			st := &ls[l]
			n := liveOnLink[l]
			st.unfrozen = n
			var b int32
			if capOf == nil {
				st.avail = p.LinkBandwidth
				b = bucketTab[n]
			} else {
				st.avail = capOf[l]
				b = int32(math.Float64bits(capOf[l]/float64(n)) >> bShift)
			}
			st.inBucket = b
			fileB[pos] = b
		}
	}
	// scanShard is one worker's tile of the pop sweep over the lowest
	// occupied bucket: it compacts surviving entries in place inside
	// its own tile (disjoint writes), buffers stale-entry refiles in
	// worker-local order, and keeps a worker-local lexicographic
	// (share, link) minimum. Nothing in linkState is written here —
	// stale entries' inBucket moves are deferred to the serial merge,
	// so a link whose entry was duplicated across tiles (a dip refile
	// resurrected by a later rise, which the serial sweep tolerates) is
	// read-only shared and the merge drops the duplicate exactly as
	// the serial sweep would.
	scanShard := func(w int) {
		lst := rnd.scan
		lo, hi := tile(len(lst), w)
		b := rnd.scanB
		wr := lo
		best := -1
		var bestS float64
		buf := refBuf[w][:0]
		for pos := lo; pos < hi; pos++ {
			l32 := lst[pos]
			st := &ls[l32]
			if st.inBucket != b || st.unfrozen == 0 {
				continue
			}
			s := st.avail / float64(st.unfrozen)
			if tb := int32(math.Float64bits(s) >> bShift); tb != b {
				buf = append(buf, int64(tb)<<32|int64(l32))
				continue
			}
			lst[wr] = l32
			wr++
			if best < 0 || s < bestS || (s == bestS && int(l32) < best) {
				best = int(l32)
				bestS = s
			}
		}
		scanWr[w] = int32(wr - lo)
		scanBestL[w], scanBestS[w] = best, bestS
		refBuf[w] = buf
	}
	advanceShard := func(w int) {
		lo0, hi0 := tile(rnd.nGrp, w)
		dt := rnd.dt
		for pos := lo0; pos < hi0; pos++ {
			g := activeGroups[pos]
			gst := &gs[g]
			lo, hi := gst.front, gst.end
			x := gst.rate * dt
			done := lo
			for i := lo; i < hi; i++ {
				rem := mRemaining[i] - x
				mRemaining[i] = rem
				if done == i && rem <= 1e-9 {
					done = i + 1
				}
			}
			doneK[pos] = done - lo
		}
	}

	// Bottleneck selection uses a monotone bucket queue keyed by the
	// IEEE bit pattern of each link's current share. Every live link
	// has exactly one valid entry, filed at or BELOW the bucket of its
	// current share. Shares only rise within an event (freezing a flow
	// capped below a link's fair share raises the survivors' share), so
	// a touch normally leaves the entry in place and the pop sweep lifts
	// stale entries when it reaches them; the rare genuine dips
	// (clamping plus rounding) are caught by a guard-banded multiply
	// and refiled eagerly. The sweep recomputes exact shares in the
	// lowest occupied bucket, so the selected minimum — smallest share,
	// ties to the lowest link index — is bit-for-bit the rescan's.
	// Bucket lists are truncated lazily on first use per event
	// (bucketStamp).
	bucket := make([][]int32, nBuckets)
	bucketStamp := make([]int32, nBuckets)
	bitmap := make([]uint64, nBuckets/64)
	eventID := int32(0)
	curB := 0
	// file pushes link l into bucket b for the current event.
	file := func(l, b int32) {
		if bucketStamp[b] != eventID {
			bucketStamp[b] = eventID
			bucket[b] = bucket[b][:0]
		}
		bitmap[b>>6] |= 1 << (uint(b) & 63)
		bucket[b] = append(bucket[b], l)
		if int(b) < curB {
			curB = int(b)
		}
	}
	// retire completes group g's k front members at time now: the
	// group front moves past them, their completion stamps are
	// recorded, and their routes' live counts drop.
	retire := func(g, k int32) {
		gst := &gs[g]
		lo := gst.front
		gst.front = lo + k
		active -= int(k)
		if ft != nil {
			stamp := now + p.SendOverhead + p.RecvOverhead + p.RouteLatency
			for i := lo; i < lo+k; i++ {
				ft.Done[mMsgOf[i]] = stamp
			}
		}
		if mults == nil {
			for _, l := range routes[g] {
				liveOnLink[l] -= k
			}
			return
		}
		for j, l := range routes[g] {
			liveOnLink[l] -= k * mults[g][j]
		}
	}
	roundGroups := make([]roundGroup, 0, ngroups)
	for active > 0 {
		// Drop finished groups and idle links, preserving order; reset
		// the per-event freeze state.
		w := 0
		for _, g := range activeGroups {
			if st := &gs[g]; st.front < st.end {
				st.frozen = false
				activeGroups[w] = g
				w++
			}
		}
		activeGroups = activeGroups[:w]
		w = 0
		for _, l := range activeLinks {
			if liveOnLink[l] > 0 {
				activeLinks[w] = l
				w++
			}
		}
		activeLinks = activeLinks[:w]

		// Reset the bucket queue for this event. The share computation
		// per link shards across the gang; the queue pushes stay
		// serial in activeLinks order, so the queue's contents do not
		// depend on the gang width.
		clear(bitmap)
		eventID++
		curB = nBuckets
		if gang != nil && len(activeLinks) >= shardMinLinks {
			rnd.links = activeLinks
			gang.Run(resetShard)
			for pos, l := range activeLinks {
				file(l, fileB[pos])
			}
		} else {
			for _, l := range activeLinks {
				st := &ls[l]
				n := liveOnLink[l]
				st.unfrozen = n
				var b int32
				if capOf == nil {
					st.avail = p.LinkBandwidth
					b = bucketTab[n]
				} else {
					st.avail = capOf[l]
					b = int32(math.Float64bits(capOf[l]/float64(n)) >> bShift)
				}
				st.inBucket = b
				file(l, b)
			}
		}

		// Max-min fair allocation: repeatedly freeze the flows crossing
		// the currently most-contended link at its fair share. The next
		// completion time is folded into the same pass: every live group
		// is frozen exactly once per event at its members' common rate,
		// and rounding is monotone, so the running minimum of
		// front-member-remaining/share over freeze operations equals the
		// full scan's minimum of remaining/rate over every flow.
		dt := math.Inf(1)
		remainingUnfrozen := active
		freezeRounds, frozenFlows := 0, 0 // flushed to obs counters per event
		for remainingUnfrozen > 0 {
			bott := -1
			var sel float64
			for curB < nBuckets {
				wd := bitmap[curB>>6] >> (uint(curB) & 63)
				if wd == 0 {
					curB = (curB &^ 63) + 64
					continue
				}
				b := curB + mbits.TrailingZeros64(wd)
				lst := bucket[b]
				wr := 0
				best := -1
				var bestS float64
				if gang != nil && len(lst) >= shardMinScan {
					// Sharded sweep: workers compact their own
					// contiguous tiles in place, so concatenating the
					// survivor segments in worker order reproduces the
					// serial compaction order; stale-entry refiles are
					// buffered per worker and applied in worker order
					// (= list order); and the selected minimum is the
					// lexicographic merge of the worker minima —
					// order-independent, so bit-identical to the
					// serial sweep's.
					rnd.scan, rnd.scanB = lst, int32(b)
					gang.Run(scanShard)
					for w := 0; w < workers; w++ {
						lo, _ := tile(len(lst), w)
						n := int(scanWr[w])
						copy(lst[wr:wr+n], lst[lo:lo+n])
						wr += n
						if wl := scanBestL[w]; wl >= 0 {
							if best < 0 || scanBestS[w] < bestS || (scanBestS[w] == bestS && wl < best) {
								best = wl
								bestS = scanBestS[w]
							}
						}
					}
					for w := 0; w < workers; w++ {
						for _, e := range refBuf[w] {
							l, tb := int32(e&0xffffffff), int32(e>>32)
							st := &ls[l]
							if st.inBucket != int32(b) {
								continue // duplicate entry; already lifted
							}
							st.inBucket = tb
							file(l, tb)
						}
						refBuf[w] = refBuf[w][:0]
					}
				} else {
					// Compact out entries whose link moved or saturated,
					// lift risen entries to their exact bucket (tb > b
					// always), and take the exact (share, index)
					// minimum of the rest.
					for _, l32 := range lst {
						st := &ls[l32]
						if st.inBucket != int32(b) || st.unfrozen == 0 {
							continue
						}
						s := st.avail / float64(st.unfrozen)
						if tb := int(math.Float64bits(s) >> bShift); tb != b {
							st.inBucket = int32(tb)
							file(l32, int32(tb))
							continue
						}
						lst[wr] = l32
						wr++
						if best < 0 || s < bestS || (s == bestS && int(l32) < best) {
							best = int(l32)
							bestS = s
						}
					}
				}
				bucket[b] = lst[:wr]
				if best < 0 {
					bitmap[b>>6] &^= 1 << (uint(b) & 63)
					curB = b + 1
					continue
				}
				curB = b
				bott = best
				sel = bestS
				break
			}
			if bott < 0 {
				break
			}
			u.AddBottleneck(bott)
			freezeRounds++
			// Pass 1, serial: settle which groups freeze this round,
			// their weights, the completion-time fold, and the
			// bottleneck's compacted group list (finished groups are
			// dropped lazily, order preserved) — everything whose order
			// the result can observe. dtThr is a provably safe skip
			// bound for the fold: rem >= dt*sel*(1+1e-12) implies
			// fl(rem/sel) > dt even after rounding, so only
			// near-minimum candidates pay the division, and the
			// divisions that do run are the identical fl(rem/sel) the
			// rescan computes.
			dtThr := dt * sel * dtSlack
			roundGroups = roundGroups[:0]
			touches := 0
			lg := linkGroups[bott][:0]
			for _, g := range linkGroups[bott] {
				gst := &gs[g]
				lo := gst.front
				if lo == gst.end {
					continue
				}
				lg = append(lg, g)
				if gst.frozen {
					continue
				}
				gst.frozen = true
				gst.rate = sel
				k := gst.end - lo
				remainingUnfrozen -= int(k)
				frozenFlows += int(k)
				if sel > 0 {
					if rem := mRemaining[lo]; rem < dtThr {
						if d := rem / sel; d < dt {
							dt = d
							dtThr = dt * sel * dtSlack
						}
					}
				}
				roundGroups = append(roundGroups, roundGroup{g, k})
				touches += len(routes[g])
			}
			linkGroups[bott] = lg
			// Pass 2: apply the frozen groups' bandwidth claims to
			// their links. Each link's updates happen in the same
			// (group, route) order serially and sharded — a worker
			// owns every occurrence of its links — and buffered
			// refiles merge in worker order, which the bucket queue
			// cannot observe (selection is an order-independent
			// minimum). A group's k members claim sel together, as
			// the rescan freezes them one by one: the unclamped chain
			// is monotone decreasing, so one clamp lands on the float64
			// the rescan's per-step clamps do.
			rnd.sel = sel
			rnd.groups = roundGroups
			if gang != nil && touches >= shardMinTouches {
				gang.Run(freezeShard)
				for w := 0; w < workers; w++ {
					for _, e := range refBuf[w] {
						file(int32(e&0xffffffff), int32(e>>32))
					}
					refBuf[w] = refBuf[w][:0]
				}
			} else {
				for _, rgp := range roundGroups {
					g, k := rgp.g, rgp.k
					route := routes[g]
					var ws []int32
					if mults != nil {
						ws = mults[g]
					}
					for j, l := range route {
						st := &ls[l]
						a := st.avail
						kk := k
						if ws != nil {
							kk *= ws[j]
							a -= sel * float64(kk)
						} else {
							for i := int32(0); i < kk; i++ {
								a -= sel
							}
						}
						if a < 0 {
							a = 0
						}
						st.avail = a
						if n := st.unfrozen - kk; n > 0 {
							st.unfrozen = n
							floor := math.Float64frombits(uint64(st.inBucket) << bShift)
							if a < floor*float64(n)*dtSlack {
								s := a / float64(n)
								if db := int32(math.Float64bits(s) >> bShift); db < st.inBucket {
									st.inBucket = db
									file(l, db)
								}
							}
						} else {
							st.unfrozen = 0
						}
					}
				}
			}
		}
		if remainingUnfrozen > 0 {
			for _, g := range activeGroups {
				gst := &gs[g]
				if gst.frozen || gst.rate <= 0 {
					continue
				}
				if d := mRemaining[gst.front] / gst.rate; d < dt {
					dt = d
				}
			}
		}
		res.Events++
		cSimEvents.Inc()
		cSimFreezeRounds.Add(int64(freezeRounds))
		cSimFrozenFlows.Add(int64(frozenFlows))

		if math.IsInf(dt, 1) {
			break
		}
		now += dt
		if u != nil {
			for _, l := range activeLinks {
				if liveOnLink[l] > 0 {
					u.AddBusy(int(l), dt)
				}
			}
		}
		// Advance every live member by its group rate. The drain loop
		// shards by group tiles (disjoint member ranges); the
		// completion bookkeeping — front moves, stamps, live-count
		// decrements — merges serially in group order.
		prevActive := active
		if gang != nil && active >= shardMinFlows {
			rnd.nGrp = len(activeGroups)
			rnd.dt = dt
			gang.Run(advanceShard)
			for pos, g := range activeGroups {
				if k := doneK[pos]; k > 0 {
					retire(g, k)
				}
			}
		} else {
			for _, g := range activeGroups {
				gst := &gs[g]
				lo, hi := gst.front, gst.end
				x := gst.rate * dt
				done := lo
				for i := lo; i < hi; i++ {
					rem := mRemaining[i] - x
					mRemaining[i] = rem
					if done == i && rem <= 1e-9 {
						done = i + 1
					}
				}
				if done > lo {
					retire(g, done-lo)
				}
			}
		}
		simPhase.Add(int64(prevActive - active))
	}
	// Clamp onto the certifiable floor: pooled transit capacity can
	// only be optimistic (it averages away intra-pool imbalance), so
	// an approximate finish below the heaviest physical link's
	// drain time is lifted onto it, completion stamps rescaled in
	// proportion. The gap left above the floor is reported as
	// BoundGap, which is not an error bound (see ApproxInfo).
	if info != nil {
		oh := overheadMax + p.RouteLatency
		if now < lbNow && now > 0 {
			f := lbNow / now
			if ft != nil {
				base := p.SendOverhead + p.RecvOverhead + p.RouteLatency
				for i, d := range ft.Done {
					if t := d - base; t > 0 {
						ft.Done[i] = t*f + base
					}
				}
			}
			now = lbNow
			info.Clamped = true
		}
		info.LowerBound = lbNow + oh
		res.Time = now + oh
		if res.Time > 0 {
			info.BoundGap = (res.Time - info.LowerBound) / res.Time
		}
	} else {
		res.Time = now + overheadMax + p.RouteLatency
	}
	if ft != nil {
		for g := 0; g < ngroups; g++ {
			for i := gs[g].front; i < gs[g].end; i++ {
				ft.Done[mMsgOf[i]] = res.Time
			}
		}
	}
	u.SetDuration(res.Time)
	return res
}

// memberSort orders a group's members by initial size ascending,
// keeping the size and message-index slices in step.
type memberSort struct {
	rem []float64
	msg []int32
}

func (m *memberSort) Len() int           { return len(m.rem) }
func (m *memberSort) Less(i, j int) bool { return m.rem[i] < m.rem[j] }
func (m *memberSort) Swap(i, j int) {
	m.rem[i], m.rem[j] = m.rem[j], m.rem[i]
	m.msg[i], m.msg[j] = m.msg[j], m.msg[i]
}
