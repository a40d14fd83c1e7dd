// Package faultinject is the deterministic fault-injection engine
// behind the robustness layer: seed-driven fault points threaded
// through the batch workers, the core analysis stage boundaries, the
// result cache, and the HTTP server, so chaos tests and `modand
// -fault-rate` runs can prove that failures surface as structured
// errors or degraded-but-correct answers — never as a wrong bit
// vector, a leaked goroutine, or a half-updated session.
//
// Every decision is a pure function of (seed, site, per-site draw
// counter), so a single-threaded request sequence reproduces the exact
// same faults run after run. Four fault kinds are modeled:
//
//   - KindPanic: the fault point panics with *InjectedPanic, standing
//     in for a worker bug; the recovery path must isolate it and turn
//     it into an error or a degraded retry.
//   - KindError: the fault point returns *InjectedError, standing in
//     for an internal failure that is detected and reported.
//   - KindDelay: the fault point sleeps, standing in for a stalled
//     dependency; deadline propagation must turn it into a clean
//     timeout instead of a hung request.
//   - KindCorrupt: reported only through Corrupt, standing in for a
//     cache entry failing its integrity check; consumers must bypass
//     and recompute.
//
// A nil *Injector is valid everywhere and disables injection at the
// cost of one nil check, so production paths carry the hooks for free.
package faultinject

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies one injected fault.
type Kind uint8

// Fault kinds.
const (
	KindPanic Kind = iota
	KindError
	KindDelay
	KindCorrupt
	numKinds
)

// String names the kind the way the metrics exposition spells it.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// InjectedError is the error returned by a fault point that drew a
// KindError fault.
type InjectedError struct {
	// Site names the fault point, e.g. "core.mod.gmod".
	Site string
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s", e.Site)
}

// InjectedPanic is the value a fault point panics with on a KindPanic
// fault. Recovery layers can detect it to distinguish injected chaos
// from genuine bugs, but must treat both identically.
type InjectedPanic struct {
	Site string
}

// String renders the panic value.
func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s", p.Site)
}

// Config parameterizes New.
type Config struct {
	// Rate is the per-draw fault probability in [0, 1]. Zero disables
	// the injector (New returns nil).
	Rate float64
	// Seed drives every decision; equal configs and equal call
	// sequences inject equal faults.
	Seed int64
	// Delay is how long a KindDelay fault sleeps (default 2ms — long
	// enough to trip tight deadlines, short enough for 10k-request
	// soaks).
	Delay time.Duration
	// Kinds lists the fault kinds to draw from. Empty means every
	// kind: panic, error, delay, and corrupt.
	Kinds []Kind
}

// Injector draws deterministic faults at named sites. Safe for
// concurrent use; nil disables all methods.
type Injector struct {
	rate  float64
	seed  int64
	delay time.Duration
	kinds []Kind // non-corrupt kinds served by At
	corr  bool   // KindCorrupt enabled

	mu     sync.Mutex
	draws  map[string]uint64 // site → draws so far
	counts map[string]uint64 // site + "\x00" + kind → faults fired
	total  uint64
}

// New builds an injector. A zero or negative rate returns nil — the
// universal "injection disabled" value.
func New(cfg Config) *Injector {
	if cfg.Rate <= 0 {
		return nil
	}
	if cfg.Rate > 1 {
		cfg.Rate = 1
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 2 * time.Millisecond
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindPanic, KindError, KindDelay, KindCorrupt}
	}
	in := &Injector{
		rate:   cfg.Rate,
		seed:   cfg.Seed,
		delay:  cfg.Delay,
		draws:  make(map[string]uint64),
		counts: make(map[string]uint64),
	}
	for _, k := range kinds {
		if k == KindCorrupt {
			in.corr = true
		} else if k < numKinds {
			in.kinds = append(in.kinds, k)
		}
	}
	return in
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, inlined to avoid an allocation per draw.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// draw advances site's deterministic sequence and reports whether a
// fault fires, returning the mixed hash for kind selection.
func (in *Injector) draw(site string) (uint64, bool) {
	in.mu.Lock()
	n := in.draws[site]
	in.draws[site] = n + 1
	in.mu.Unlock()
	h := splitmix64(uint64(in.seed) ^ hashString(site) ^ splitmix64(n))
	return h, float64(h>>11)/float64(1<<53) < in.rate
}

// record counts one fired fault.
func (in *Injector) record(site string, k Kind) {
	in.mu.Lock()
	in.counts[site+"\x00"+k.String()]++
	in.total++
	in.mu.Unlock()
}

// At is the fault point for computation sites. It usually returns nil;
// with probability Rate it instead panics with *InjectedPanic, sleeps
// for the configured delay, or returns *InjectedError, chosen
// deterministically. Nil receivers never fault.
func (in *Injector) At(site string) error {
	if in == nil || len(in.kinds) == 0 {
		return nil
	}
	h, fire := in.draw(site)
	if !fire {
		return nil
	}
	k := in.kinds[int((h>>3)%uint64(len(in.kinds)))]
	in.record(site, k)
	switch k {
	case KindPanic:
		panic(&InjectedPanic{Site: site})
	case KindDelay:
		time.Sleep(in.delay)
		return nil
	default:
		return &InjectedError{Site: site}
	}
}

// Corrupt is the fault point for integrity checks: it reports whether
// a simulated corruption should be observed at site. Only fires when
// KindCorrupt is among the configured kinds.
func (in *Injector) Corrupt(site string) bool {
	if in == nil || !in.corr {
		return false
	}
	_, fire := in.draw(site)
	if fire {
		in.record(site, KindCorrupt)
	}
	return fire
}

// Total returns the number of faults fired so far.
func (in *Injector) Total() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// Counts returns a copy of the per-site, per-kind fault counters,
// keyed "site/kind".
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, len(in.counts))
	for k, v := range in.counts {
		out[strings.Replace(k, "\x00", "/", 1)] = v
	}
	return out
}

// Summary renders the counters as "site/kind=N" terms, sorted — the
// one-line form the CLIs print after a chaos run.
func (in *Injector) Summary() string {
	c := in.Counts()
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	terms := make([]string, 0, len(keys))
	for _, k := range keys {
		terms = append(terms, fmt.Sprintf("%s=%d", k, c[k]))
	}
	return strings.Join(terms, " ")
}
