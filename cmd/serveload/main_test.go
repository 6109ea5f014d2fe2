package main

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"bgpvr/internal/obs"
	"bgpvr/internal/telemetry"
)

// The table's percentiles are nearest-rank over the raw latencies, not
// the log-2 bucket estimate. Half the samples at 1.5 ms and the other
// half at 9 ms with one 15 ms outlier put the p99 rank on a 9 ms sample,
// while interpolating inside the (8, 16] ms bucket puts the estimate at
// the 15 ms maximum.
func TestTablePercentilesAreNearestRank(t *testing.T) {
	p := newPoint(obs.NewRegistry(), 0)
	add := func(ms float64, n int) {
		for i := 0; i < n; i++ {
			p.observe(time.Duration(ms*float64(time.Millisecond)), "", false)
		}
	}
	add(1.5, 50)
	add(9, 49)
	add(15, 1)

	sp := telemetry.ServicePoint{Concurrency: 1}
	p.summarize(&sp)
	if sp.Requests != 100 || sp.SlowestMs != 15 {
		t.Fatalf("requests %d slowest %v, want 100 and 15", sp.Requests, sp.SlowestMs)
	}
	bucket := p.hist.Quantile(0.99) * 1e3
	row := strings.Fields(tableRow(sp, bucket))
	cols := strings.Fields(tableHeader)
	col := func(name string) float64 {
		for i, c := range cols {
			if c == name {
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					t.Fatalf("column %s: %v", name, err)
				}
				return v
			}
		}
		t.Fatalf("no column %s in %q", name, tableHeader)
		return 0
	}
	p50, p90, p99 := col("p50_ms"), col("p90_ms"), col("p99_ms")
	if p50 != 1.5 || p90 != 9 || p99 != 9 {
		t.Errorf("printed p50/p90/p99 = %v/%v/%v, want nearest-rank 1.5/9/9", p50, p90, p99)
	}
	if p99 > sp.SlowestMs {
		t.Errorf("printed p99 %v exceeds slowest request %v", p99, sp.SlowestMs)
	}
	if got := col("bkt_p99"); got == p99 || got != bucket {
		t.Errorf("bucket p99 column %v (estimate %v) should differ from nearest-rank %v", got, bucket, p99)
	}
	if sp.MeanMs != (50*1.5+49*9+15)/100 {
		t.Errorf("mean %v", sp.MeanMs)
	}
}
