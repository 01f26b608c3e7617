package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

const tracesHeader = `File: refbench
Type: cpu
Duration: 1.20s, Total samples = 1.07s (89.17%)
`

const tracesSep = "-----------+-------------------------------------------------------\n"

func TestParseTraces(t *testing.T) {
	for _, tc := range []struct {
		name    string
		text    string
		want    []sample
		wantErr bool
	}{
		{
			name: "header only",
			text: tracesHeader,
		},
		{
			name: "two stacks",
			text: tracesHeader + tracesSep +
				"      60ms   runtime.memclrNoHeapPointers\n" +
				"             refsched/internal/kernel/buddy.New\n" +
				tracesSep +
				"     1.01s   refsched/internal/kernel/buddy.(*Allocator).pushFree (inline)\n" +
				"             refsched/internal/core.Build\n" +
				tracesSep,
			want: []sample{
				{60 * time.Millisecond, []string{"runtime.memclrNoHeapPointers", "refsched/internal/kernel/buddy.New"}},
				{1010 * time.Millisecond, []string{"refsched/internal/kernel/buddy.(*Allocator).pushFree", "refsched/internal/core.Build"}},
			},
		},
		{
			name: "generic frame",
			text: tracesHeader + tracesSep +
				"      10ms   refsched/internal/runner.RunBatch[go.shape.*uint8].func2\n",
			want: []sample{{10 * time.Millisecond, []string{"refsched/internal/runner.RunBatch[go.shape.*uint8].func2"}}},
		},
		{
			name:    "bad value",
			text:    tracesHeader + tracesSep + "      tenms   runtime.mallocgc\n",
			wantErr: true,
		},
		{
			name:    "value without frame",
			text:    tracesHeader + tracesSep + "      10ms\n",
			wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseTraces(strings.NewReader(tc.text))
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if !tc.wantErr && !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct{ frame, want string }{
		{"runtime.memclrNoHeapPointers", ""},
		{"runtime.gcBgMarkWorker", ""},
		{"main.main", ""},
		{"net/http.(*conn).serve", ""},
		{"refsched/internal/kernel/buddy.New", "buddy"},
		{"refsched/internal/kernel/sched.(*CFS).PickNext", "kernel"},
		{"refsched/internal/kernel/vm.(*PageTable).Map", "kernel"},
		{"refsched/internal/dram.(*Mapper).PageCoord", "dram_mapper"},
		{"refsched/internal/dram.NewMapper", "dram_mapper"},
		{"refsched/internal/dram.(*Channel).Plan", "dram"},
		{"refsched/internal/mc.(*Controller).pick", "mc"},
		{"refsched/internal/runner.RunBatch[go.shape.*refsched/internal/core.Report].func2", "harness"},
		{"refsched/internal/service.(*Server).execute", "service"},
		{"refsched.(*System).Run", "core"},
		{"refsched/internal/unlisted.F", ""},
	} {
		if got := layerOf(tc.frame); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.frame, got, tc.want)
		}
	}
}

func TestLayerShares(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name    string
		samples []sample
		want    map[string]float64 // shares not listed must be 0
	}{
		{
			name: "memclr under buddy.New is buddy and build",
			samples: []sample{{10 * ms, []string{
				"runtime.memclrNoHeapPointers", "runtime.mallocgc",
				"refsched/internal/kernel/buddy.New", "refsched/internal/core.Build",
				"refsched/internal/harness.Params.run"}}},
			want: map[string]float64{"buddy.share": 1, "build.share": 1},
		},
		{
			name:    "a GC worker with no repository frame is runtime",
			samples: []sample{{10 * ms, []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}}},
			want:    map[string]float64{"runtime.share": 1},
		},
		{
			name: "PageCoord is dram_mapper, Run on the stack is run",
			samples: []sample{
				{30 * ms, []string{"refsched/internal/dram.(*Mapper).PageCoord", "refsched/internal/core.(*System).Run"}},
				{10 * ms, []string{"refsched/internal/mc.(*Controller).pick", "refsched/internal/core.(*System).RunPreemptible"}},
			},
			want: map[string]float64{"dram_mapper.share": 0.75, "mc.share": 0.25, "run.share": 1},
		},
		{
			name: "an unlisted package goes to its nearest listed caller",
			samples: []sample{{10 * ms, []string{
				"refsched/internal/unlisted.F", "refsched/internal/cache.(*Cache).Access"}}},
			want: map[string]float64{"cache.share": 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, total := layerShares(tc.samples)
			var sumWant time.Duration
			for _, s := range tc.samples {
				sumWant += s.cpu
			}
			if total != sumWant {
				t.Errorf("total = %v, want %v", total, sumWant)
			}
			var sum float64
			for _, l := range layerNames {
				sum += got[l+".share"]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("exclusive shares sum to %v, want 1", sum)
			}
			for _, d := range perLayer()[:len(layerNames)+len(stackShares)] {
				if math.Abs(got[d.name]-tc.want[d.name]) > 1e-9 {
					t.Errorf("%s = %v, want %v", d.name, got[d.name], tc.want[d.name])
				}
			}
		})
	}
}
