package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// benchHead is the envelope every BENCH_*.json document embeds, so
// each file starts with the scheduler width, the machine's CPU count
// and the footprint of the process that wrote it.
type benchHead struct {
	Cores  int       `json:"cores"`
	NumCPU int       `json:"num_cpu"`
	Mem    memSample `json:"mem"`
}

func (h *benchHead) head() *benchHead { return h }

// writeBench fills the head of doc and writes doc as file in the
// current directory. It is the one writer of the BENCH_*.json files.
func writeBench(file string, doc interface{ head() *benchHead }) error {
	*doc.head() = benchHead{Cores: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Mem: sampleMem()}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(out, '\n'), 0o644)
}

// latencyQuantiles returns the p50 and p99 of per-request wall times in
// milliseconds, sorting lat in place; both are zero when lat is empty.
func latencyQuantiles(lat []time.Duration) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	slices.Sort(lat)
	at := func(q float64) float64 {
		return float64(lat[int(q*float64(len(lat)-1))].Nanoseconds()) / 1e6
	}
	return at(0.50), at(0.99)
}

// memSample is the memory block of benchHead, taken once at write time
// so a run's timing rows can be read against the process footprint
// that produced them. HeapAlloc and Sys come from runtime.MemStats;
// PeakRSS is the kernel's high-water mark (VmHWM), best-effort and zero
// on platforms without /proc.
type memSample struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
	PeakRSSBytes   uint64 `json:"peak_rss_bytes,omitempty"`
}

// sampleMem reads the current process memory state. It does not force
// a collection: the point is the footprint the benchmark actually ran
// with, not the minimum live set.
func sampleMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{
		HeapAllocBytes: ms.HeapAlloc,
		SysBytes:       ms.Sys,
		PeakRSSBytes:   peakRSS(),
	}
}

// peakRSS returns the process's peak resident set in bytes (VmHWM from
// /proc/self/status), or 0 where unavailable.
func peakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseUint(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
