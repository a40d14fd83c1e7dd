package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"sideeffect"
	"sideeffect/internal/bitset"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/prof"
	"sideeffect/internal/workload"
)

// session-edit holds one program open in a sideeffect.Session, the
// path the daemon's /session endpoints and the watch-mode indexer
// drive, and edits it from one client. Each op is one edit and a MOD
// read of the edited procedure. Edits come in cycles of four: three
// insert a "g<k> := 0;" or "write g<k>;" statement into a procedure
// (additive, so the session updates incrementally) and the fourth
// removes the cycle's insertions (so the session reanalyzes in full).
// Incremental edits save only part of a full one, so this is where an
// incremental-path gain shows and where a full-path change must not
// cost the incremental path.
var sessionEditDef = workloadDef{name: "session-edit", clients: 1, warmup: 1, setup: setupSessionEdit}

// editCycle is the number of ops per cycle: editCycle-1 insertions and
// one removal.
const editCycle = 4

type sessionEdit struct {
	seed   int64
	base   string
	bodies []int // per procedure p<j>, the offset just after its "begin\n"
	sess   *sideeffect.Session
	every  int

	// Traced runs: the stage table last seen and its totals, to take
	// each edit's share.
	prevProf   *prof.Profile
	prevStages map[string]int64
}

func setupSessionEdit(r *run) (instance, error) {
	s := r.sizes
	base := workload.Emit(workload.Random(workload.DefaultConfig(s.sessionProcs, sessionShape)))
	se := &sessionEdit{seed: r.seed, base: base, every: s.checkEvery}
	for j := 0; j < s.sessionProcs; j++ {
		h := strings.Index(base, "\nproc p"+strconv.Itoa(j)+"(")
		b := -1
		if h >= 0 {
			b = strings.Index(base[h:], "\nbegin\n")
		}
		if b < 0 {
			return nil, fmt.Errorf("no body for procedure p%d", j)
		}
		se.bodies = append(se.bodies, h+b+len("\nbegin\n"))
	}
	var err error
	se.sess, err = sideeffect.NewSession(base, sideeffect.Options{Profile: r.tr != nil})
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		se.prevProf = se.sess.Analysis().Stages
		se.prevStages = stageNS(se.prevProf)
	}
	return se, nil
}

type insertion struct {
	at   int
	line string
}

// source returns op i's program text and the procedure it edits. It
// depends on the seed and i alone.
func (se *sessionEdit) source(i int) (string, string) {
	c, step := i/editCycle*editCycle, i%editCycle
	var ins []insertion
	var procs []string
	for k := c; k < c+editCycle-1; k++ {
		u := mix(se.seed, k)
		j := int(u % uint64(len(se.bodies)))
		g := "g" + strconv.Itoa(int((u>>24)%uint64(len(se.bodies))))
		line := "  " + g + " := 0;\n"
		if u>>60&1 == 1 {
			line = "  write " + g + ";\n"
		}
		ins = append(ins, insertion{at: se.bodies[j], line: line})
		procs = append(procs, "p"+strconv.Itoa(j))
	}
	if step == editCycle-1 {
		return se.base, procs[0]
	}
	ins = ins[:step+1]
	sort.SliceStable(ins, func(a, b int) bool { return ins[a].at < ins[b].at })
	var sb strings.Builder
	prev := 0
	for _, in := range ins {
		sb.WriteString(se.base[prev:in.at])
		sb.WriteString(in.line)
		prev = in.at
	}
	sb.WriteString(se.base[prev:])
	return sb.String(), procs[step]
}

func (se *sessionEdit) round() int { return editCycle }

func (se *sessionEdit) op(r *run, i int) error {
	src, proc := se.source(i)
	root, sp := 0, 0
	if r.tr != nil {
		root = r.tr.begin(i, 0, "session-edit.op", "bench")
		sp = r.tr.begin(i, root, "Session.Edit", "session")
	}
	t0 := time.Now()
	mode, err := se.sess.Edit(src)
	d := time.Since(t0)
	if r.tr != nil {
		r.tr.end(sp, se.editStages())
		sp = r.tr.begin(i, root, "Analysis.MOD", "session")
	}
	if err == nil {
		_, err = se.sess.Analysis().MOD(proc)
	}
	r.tr.end(sp, nil)
	r.tr.end(root, nil)
	if err != nil {
		return fmt.Errorf("session-edit op %d: %w", i, err)
	}
	r.add("edits."+mode.String(), 1)
	r.add("edit_ns."+mode.String(), float64(d.Nanoseconds()))
	return nil
}

// editStages is the stage time the last edit added: the whole table
// of a fresh analysis after a full edit, the growth of the maintained
// one after an incremental edit.
func (se *sessionEdit) editStages() map[string]int64 {
	cur := se.sess.Analysis().Stages
	stages := stageNS(cur)
	delta := stages
	if cur == se.prevProf {
		delta = stageDelta(stages, se.prevStages)
	}
	se.prevProf, se.prevStages = cur, stages
	return delta
}

func (se *sessionEdit) checkEvery() int { return se.every }

// check compares the session's analysis with a fresh analysis of its
// current source, set by set. Rendering both reports costs ten times
// the analysis at this size, so the byte comparison of the reports
// runs once, after the window.
func (se *sessionEdit) check(i int) error {
	fresh, err := sideeffect.Analyze(se.sess.Source())
	if err != nil {
		return fmt.Errorf("session-edit after op %d: %w", i, err)
	}
	a := se.sess.Analysis()
	for k, pair := range [][2][]*bitset.Set{
		{a.Mod.GMOD, fresh.Mod.GMOD}, {a.Use.GMOD, fresh.Use.GMOD},
		{a.ModSets, fresh.ModSets}, {a.UseSets, fresh.UseSets},
	} {
		if len(pair[0]) != len(pair[1]) {
			return fmt.Errorf("session-edit after op %d: %d sets in family %d, fresh analysis has %d", i, len(pair[0]), k, len(pair[1]))
		}
		for j := range pair[0] {
			if !pair[0][j].Equal(pair[1][j]) {
				return fmt.Errorf("session-edit after op %d: set %d of family %d differs from a fresh analysis", i, j, k)
			}
		}
	}
	return nil
}

// checkReport compares the session's report with a fresh analysis's,
// byte for byte.
func (se *sessionEdit) checkReport() error {
	fresh, err := sideeffect.Analyze(se.sess.Source())
	if err != nil {
		return err
	}
	if fresh.Report() != se.sess.Analysis().Report() {
		return fmt.Errorf("session-edit: report differs from a fresh analysis of the same source")
	}
	return nil
}

// parseSample is the number of op sources re-parsed after a traced
// window to estimate the parse share of an edit.
const parseSample = 64

func (se *sessionEdit) finish(r *run, b *breakdown) (map[string]float64, error) {
	r.verify(se.checkReport())
	if b == nil {
		return nil, nil
	}
	// Every edit reparses its source inside Session.Edit; that share is
	// measured here on the same sources and moved to the lang layer.
	n := min(b.ops, parseSample)
	var parse time.Duration
	var srcBytes int
	for i := 0; i < n; i++ {
		src, _ := se.source(i)
		t0 := time.Now()
		prog, err := sem.AnalyzeSource(src)
		if err != nil {
			return nil, err
		}
		prog.Prune()
		parse += time.Since(t0)
		srcBytes += len(src)
	}
	parseNS := float64(parse.Nanoseconds()) / float64(n)
	ops := float64(b.ops)
	b.move("session", "lang", parseNS*ops)
	inc, full := r.sum("edits.incremental"), r.sum("edits.full")
	m := map[string]float64{
		"lang.parse_ms":               parseNS / 1e6,
		"lang.mb_per_s":               float64(srcBytes) / (1 << 20) / parse.Seconds(),
		"session.incremental_ratio":   inc / (inc + full),
		"session.edit_incremental_ms": r.sum("edit_ns.incremental") / 1e6 / max(1, inc),
		"session.edit_full_ms":        r.sum("edit_ns.full") / 1e6 / max(1, full),
		"session.read_ms":             b.spanNS["Analysis.MOD"] / 1e6 / float64(max(1, b.spanN["Analysis.MOD"])),
	}
	b.stageMetrics(m)
	return m, nil
}

func (se *sessionEdit) close() { se.sess.Close() }
