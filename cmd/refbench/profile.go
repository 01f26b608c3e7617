package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// sample is one distinct stack of a CPU profile: the CPU time charged
// to it and its frames, leaf first.
type sample struct {
	cpu    time.Duration
	frames []string
}

// parseTraces parses the text `go tool pprof -traces` prints: a header,
// then one block per distinct stack. Blocks are separated by a line of
// dashes; a block's first line carries the sample's CPU time before its
// leaf frame, and each further line is one caller. The standard library
// has no profile parser and go.mod takes no dependencies, so the
// profile is read through the go tool's text output.
func parseTraces(r io.Reader) ([]sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var out []sample
	inBlock := false // the current line belongs to a block already started
	seenSep := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-----------+") {
			seenSep, inBlock = true, false
			continue
		}
		if !seenSep || line == "" {
			continue
		}
		if !inBlock {
			value, frame, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("profile: stack without a frame: %q", line)
			}
			d, err := time.ParseDuration(value)
			if err != nil {
				return nil, fmt.Errorf("profile: bad sample value in %q: %w", line, err)
			}
			out = append(out, sample{cpu: d})
			inBlock = true
			line = strings.TrimSpace(frame)
		}
		frame := strings.TrimSpace(strings.TrimSuffix(line, "(inline)"))
		last := &out[len(out)-1]
		last.frames = append(last.frames, frame)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return out, nil
}

// readProfile runs `go tool pprof -traces` on a CPU profile and parses
// its output.
func readProfile(ctx context.Context, path string) ([]sample, error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w: %s", path, err, errb.String())
	}
	return parseTraces(&out)
}

// The exclusive layers a CPU sample can be charged to. Their shares sum
// to 1. They are the repository's packages, grouped as the ROADMAP
// names the simulator's and the daemon's layers.
var layerNames = []string{
	"cpu", "cache", "workload", "mc", "dram", "dram_mapper", "refresh", "sim",
	"kernel", "buddy", "core", "harness", "service", "timeline", "runtime",
}

// layerPackages maps package import paths to layers; a package's
// sub-packages belong to its layer unless listed themselves.
var layerPackages = map[string]string{
	"refsched":                       "core",
	"refsched/internal/cpu":          "cpu",
	"refsched/internal/cache":        "cache",
	"refsched/internal/workload":     "workload",
	"refsched/internal/trace":        "workload",
	"refsched/internal/mc":           "mc",
	"refsched/internal/dram":         "dram",
	"refsched/internal/refresh":      "refresh",
	"refsched/internal/sim":          "sim",
	"refsched/internal/kernel":       "kernel",
	"refsched/internal/rbtree":       "kernel",
	"refsched/internal/kernel/buddy": "buddy",
	"refsched/internal/core":         "core",
	"refsched/internal/config":       "core",
	"refsched/internal/harness":      "harness",
	"refsched/internal/runner":       "harness",
	"refsched/internal/stats":        "harness",
	"refsched/internal/metrics":      "harness",
	"refsched/internal/approx":       "harness",
	"refsched/internal/chaos":        "harness",
	"refsched/internal/journal":      "harness",
	"refsched/internal/service":      "service",
	"refsched/internal/cluster":      "service",
	"refsched/internal/buildinfo":    "service",
	"refsched/internal/timeline":     "timeline",
}

// funcPackage returns the import path of a profile frame's function,
// e.g. "refsched/internal/dram" for
// "refsched/internal/dram.(*Mapper).PageCoord".
func funcPackage(frame string) string {
	name, _, _ := strings.Cut(frame, "[") // generic instantiations may hold paths
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerOf names the layer a frame belongs to, or "" for a frame outside
// the repository's known packages: the runtime, the standard library,
// package main, or a repository package this table does not list yet,
// whose samples then go to its nearest listed caller.
func layerOf(frame string) string {
	pkg := funcPackage(frame)
	for {
		if layer, ok := layerPackages[pkg]; ok {
			if layer == "dram" && strings.Contains(frame[len(pkg):], "Mapper") {
				return "dram_mapper"
			}
			return layer
		}
		i := strings.LastIndexByte(pkg, '/')
		if i < 0 || pkg[:i] == "refsched" {
			return ""
		}
		pkg = pkg[:i]
	}
}

// Stack-based shares: a sample counts towards these when the function
// is anywhere on its stack, so they overlap the exclusive layers.
var stackShares = []struct {
	name     string
	prefixes []string
}{
	// Building or restoring a simulated system: config, allocator and
	// page-frame arrays, workload generators.
	{"build", []string{"refsched/internal/core.Build", "refsched/internal/core.Restore"}},
	// Running one: the event loop and everything it drives.
	{"run", []string{"refsched/internal/core.(*System).Run", "refsched/internal/core.(*System).Resume"}},
}

// layerShares charges each sample to the layer of its nearest frame
// in a known repository package — so memclr under buddy.New counts as
// buddy — or to runtime when no such frame exists (GC workers,
// scheduler). It returns every layer's share of the profile's CPU time
// (exclusive layers plus the stack-based build and run), keyed
// "<layer>.share", and that total.
func layerShares(samples []sample) (map[string]float64, time.Duration) {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for _, s := range samples {
		total += s.cpu
		layer := "runtime"
		for _, f := range s.frames {
			if l := layerOf(f); l != "" {
				layer = l
				break
			}
		}
		byLayer[layer] += s.cpu
		for _, st := range stackShares {
			if onStack(s.frames, st.prefixes) {
				byLayer[st.name] += s.cpu
			}
		}
	}
	shares := map[string]float64{}
	for _, l := range layerNames {
		shares[l+".share"] = fraction(byLayer[l], total)
	}
	for _, st := range stackShares {
		shares[st.name+".share"] = fraction(byLayer[st.name], total)
	}
	return shares, total
}

func onStack(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

func fraction(part, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(part) / float64(total)
}
