package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the module's packages the per-layer self times name, plus
// the Go runtime; a leaf frame anywhere else counts as "other".
var layers = []string{"sim", "medium", "mac", "core", "faults", "rng", "obs", "experiment", "serve", "atomicio", "runtime"}

const modulePrefix = "dcfguard/internal/"

// layerOf maps a fully qualified function name from a profile to its
// layer: the dcfguard/internal package it belongs to, "runtime" for the
// Go runtime (allocator, GC, scheduler, maps), or "other".
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuByLayer reads the CPU profile at path with `go tool pprof` and
// returns the flat seconds of each layer (keys from layers plus
// "other"): the samples whose leaf frame, inlined frames expanded, lies
// in that layer.
func cpuByLayer(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-symbolize=none", "-trim=false", "-unit=ms", "-top", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop totals the flat column of `pprof -top -unit=ms` output by
// layer, in seconds.
func parseTop(top []byte) (map[string]float64, error) {
	out := map[string]float64{"other": 0}
	for _, l := range layers {
		out[l] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(top))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		// flat flat% sum% cum cum% name [(inline)]
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof -top: unexpected line %q", sc.Text())
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: flat %q: %w", f[0], err)
		}
		out[layerOf(f[5])] += ms / 1e3
	}
	if !inTable {
		return nil, errors.New("pprof -top: no table in the output")
	}
	return out, sc.Err()
}
