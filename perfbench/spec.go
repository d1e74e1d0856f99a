package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// stamp identifies where a result was measured. Results are comparable only
// when every field but Commit matches: the same toolchain, CPU count, CPU
// model and benchmark code. Commit is the program under test, which is what
// a comparison varies.
type stamp struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Bench      string `json:"bench"`  // digest of this directory's sources
	Commit     string `json:"commit"` // digest of the program's sources
}

func stampNow() stamp {
	return stamp{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Bench:      treeDigest("perfbench", nil),
		Commit:     treeDigest(".", map[string]bool{"perfbench": true, ".bench_build": true, ".git": true}),
	}
}

// environment is the stamp without the program under test.
func (s stamp) environment() stamp {
	s.Commit = ""
	return s
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest hashes the Go sources and go.mod files under root, skipping
// the named top-level directories. The checkout the benchmark runs in has
// no version-control metadata, so the source content stands in for the
// commit.
func treeDigest(root string, skip map[string]bool) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skip[filepath.ToSlash(path)] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// recordPrefix marks the full record of a run on standard output, the line
// before the result; compare reads these lines.
const recordPrefix = "perfbench-record "

type record struct {
	Stamp    stamp  `json:"stamp"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compare prints, for every workload and end-to-end metric, the median and
// quartiles of a base and a head set of runs (the saved standard output of
// each), and the change of the head median against the metric's bound. It
// refuses results whose environment stamps differ.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare <base-output> <head-output>")
	}
	var sides [2][]record
	for i, path := range args {
		var err error
		if sides[i], err = readRecords(path); err != nil {
			return err
		}
		if len(sides[i]) == 0 {
			return fmt.Errorf("%s holds no %q lines", path, strings.TrimSpace(recordPrefix))
		}
	}
	env := sides[0][0].Stamp.environment()
	for i := range sides {
		for _, r := range sides[i] {
			if r.Stamp.environment() != env {
				return fmt.Errorf("refusing to compare: stamp %+v differs from %+v", r.Stamp.environment(), env)
			}
		}
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	for i := range sides {
		for _, r := range sides[i] {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				vals[i][k] = append(vals[i][k], m.Value)
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if _, ok := vals[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	defs := make(map[string]metricDef)
	for _, d := range spec.EndToEnd {
		defs[d.Name] = d
	}
	fmt.Fprintf(w, "%-13s %-12s %28s %28s %8s %6s %s\n", "workload", "metric", "base median [q1 q3]", "head median [q1 q3]", "change", "bound", "verdict")
	for _, k := range keys {
		d, ok := defs[k.metric]
		if !ok {
			continue
		}
		b, h := vals[0][k], vals[1][k]
		bm, hm := median(b), median(h)
		b1, b3 := quartiles(b)
		h1, h3 := quartiles(h)
		change := (hm - bm) / bm
		worse := change
		if d.Better == "higher" {
			worse = -change
		}
		verdict := "within bound"
		switch {
		case worse > d.Bound:
			verdict = "REGRESSION"
		case (b3-b1)/bm > d.Bound:
			verdict = "unresolved (base spread exceeds bound)"
		}
		fmt.Fprintf(w, "%-13s %-12s %10.4g [%7.4g %7.4g] %10.4g [%7.4g %7.4g] %+7.1f%% %5.0f%% %s\n",
			k.workload, k.metric, bm, b1, b3, hm, h1, h3, 100*change, 100*d.Bound, verdict)
	}
	return nil
}
