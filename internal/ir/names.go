package ir

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// NameOrder ranks a program's variables by name: every variable's
// dense rank by qualified name (Variable.String()) and by plain name
// (Variable.Name), where equal names share a rank and rank order is
// string order, and its position in the qualified-name order, which
// breaks ties by ID. The plain ranks, which only lint reads, are built
// on first use. A NameOrder is safe for concurrent readers.
type NameOrder struct {
	vars []*Variable
	// names holds every qualified name in ID order: variable id's is
	// names[offs[id]:offs[id+1]].
	names                 string
	offs                  []int32
	qual, position, byPos []int32
	spaceFree             bool

	plainOnce sync.Once
	plain     []int32
}

// Rank returns the dense rank of variable id's qualified name.
func (o *NameOrder) Rank(id int) int { return int(o.qual[id]) }

// PlainRank returns the dense rank of variable id's plain name.
func (o *NameOrder) PlainRank(id int) int {
	o.plainOnce.Do(func() {
		o.plain = make([]int32, len(o.vars))
		rank(len(o.vars), func(id int) string { return o.vars[id].Name }, o.plain)
	})
	return int(o.plain[id])
}

// Position returns variable id's position in the qualified-name order:
// names sort as their positions do, and no two variables share one.
func (o *NameOrder) Position(id int) int { return int(o.position[id]) }

// At returns the qualified name at a position.
func (o *NameOrder) At(position int) string { return o.qualified(int(o.byPos[position])) }

func (o *NameOrder) qualified(id int) string { return o.names[o.offs[id]:o.offs[id+1]] }

// SpaceFree reports whether no qualified name holds a byte at or below
// ' '. Then a name followed by a space sorts exactly as the name alone,
// so texts that begin "name " sort by the names' ranks.
func (o *NameOrder) SpaceFree() bool { return o.spaceFree }

// names is a program's name order and what sorting names by string has
// cost it so far.
type names struct {
	once  sync.Once
	order atomic.Pointer[NameOrder]
	spent atomic.Int64
}

// sortCost is the comparison count charged for sorting n names:
// n·⌈log₂(n+1)⌉.
func sortCost(n int) int64 { return int64(n) * int64(bits.Len(uint(n))) }

// NameOrder returns the program's name order, or nil while it does not
// pay for itself. sorting is the number of names the caller is about to
// sort by string; a nil result means the caller sorts them so. The
// order is built once, when the sorts asked for on this program, this
// one included, cost as much as ranking every variable:
// Σ|S|·log|S| ≥ V·log V. A program that answers one small query
// never ranks its variables, and one queried again and again ranks
// them once. The program's variables must not change afterwards.
func (p *Program) NameOrder(sorting int) *NameOrder {
	if o := p.names.order.Load(); o != nil {
		return o
	}
	if p.names.spent.Add(sortCost(sorting)) < sortCost(len(p.Vars)) {
		return nil
	}
	p.names.once.Do(func() { p.names.order.Store(buildNameOrder(p.Vars)) })
	return p.names.order.Load()
}

// buildNameOrder ranks vars by qualified name, whose strings it
// writes into one string, read back through offsets; the plain ranks
// wait for PlainRank.
func buildNameOrder(vars []*Variable) *NameOrder {
	n := len(vars)
	size := 0
	for _, v := range vars {
		size += len(v.Name)
		if v.Owner != nil {
			size += len(v.Owner.Name) + 1
		}
	}
	var b strings.Builder
	b.Grow(size)
	o := &NameOrder{
		vars:     vars,
		offs:     make([]int32, n+1),
		qual:     make([]int32, n),
		position: make([]int32, n),
		byPos:    make([]int32, n),
	}
	for i, v := range vars {
		if v.Owner != nil {
			b.WriteString(v.Owner.Name)
			b.WriteByte('.')
		}
		b.WriteString(v.Name)
		o.offs[i+1] = int32(b.Len())
	}
	o.names = b.String()
	o.spaceFree = !strings.ContainsFunc(o.names, func(r rune) bool { return r <= ' ' })
	keys := rank(n, o.qualified, o.qual)
	for k, key := range keys {
		o.position[key.id] = int32(k)
		o.byPos[k] = key.id
	}
	return o
}

// rank writes into ranks the dense rank of name(id) for each of n IDs,
// and returns the IDs' keys sorted by name, ties by ID.
func rank(n int, name func(id int) string, ranks []int32) []prefixKey {
	keys := make([]prefixKey, n)
	for i := range keys {
		keys[i] = prefixKey{prefix(name(i)), int32(i)}
	}
	slices.SortFunc(keys, func(a, b prefixKey) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		if c := strings.Compare(name(int(a.id)), name(int(b.id))); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	r := int32(-1)
	for k, key := range keys {
		if k == 0 || name(int(key.id)) != name(int(keys[k-1].id)) {
			r++
		}
		ranks[key.id] = r
	}
	return keys
}

// prefixKey is a name's first eight bytes, big-endian and zero-padded,
// beside its variable's ID. Names whose prefixes differ sort as the
// prefixes do, so most comparisons never read the strings.
type prefixKey struct {
	prefix uint64
	id     int32
}

func prefix(s string) uint64 {
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(s) {
			p |= uint64(s[i])
		}
	}
	return p
}
