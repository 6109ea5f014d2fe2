package flowsim

import (
	"fmt"
	"testing"
)

// forceSharding lowers the shard engagement thresholds so every gang
// path (reset, freeze, advance) runs even on the small configs the
// equivalence suite uses, restoring them when the test ends.
func forceSharding(t *testing.T) {
	t.Helper()
	touches, links, flows, scan := shardMinTouches, shardMinLinks, shardMinFlows, shardMinScan
	shardMinTouches, shardMinLinks, shardMinFlows, shardMinScan = 1, 1, 1, 1
	t.Cleanup(func() {
		shardMinTouches, shardMinLinks, shardMinFlows, shardMinScan = touches, links, flows, scan
	})
}

// TestShardedMatchesSerial pins the event loop at every gang width,
// with every sharded section forced on, against the serial full-rescan
// reference: Result, per-message completion times, and per-link
// telemetry must be bit-identical (exact float64 equality).
func TestShardedMatchesSerial(t *testing.T) {
	forceSharding(t)
	p := params()
	for ti, top := range equivTops() {
		for seed := int64(0); seed < 8; seed++ {
			for _, workers := range []int{1, 2, 3, 4, 8} {
				t.Run(fmt.Sprintf("top%d/seed%d/w%d", ti, seed, workers), func(t *testing.T) {
					matchesRescan(t, top, p, equivMsgs(top, ti, seed), Options{Workers: workers})
				})
			}
		}
	}
}

// TestShardedMatchesSerialAtScale runs a real direct-send compositing
// phase large enough to engage the sharded sections at their default
// thresholds, and requires bit-identical results across worker counts.
func TestShardedMatchesSerialAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second phase simulation")
	}
	top, p, msgs := directSendPhase(1024)
	var ftS FlowTimes
	want, _ := SimulateOpt(top, p, msgs, Options{Times: &ftS, Workers: 1})
	for _, workers := range []int{2, 4} {
		var ftW FlowTimes
		got, _ := SimulateOpt(top, p, msgs, Options{Times: &ftW, Workers: workers})
		if got != want {
			t.Errorf("workers=%d Result %+v, width 1 %+v", workers, got, want)
		}
		for i := range msgs {
			if ftW.Done[i] != ftS.Done[i] {
				t.Fatalf("workers=%d msg %d done %v, width 1 %v", workers, i, ftW.Done[i], ftS.Done[i])
			}
		}
	}
}
