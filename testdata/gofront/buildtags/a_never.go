//go:build sideeffect_never

package buildtags

// F is the variant no build selects, under a tag no platform sets: it
// leaves q alone. A loader that ignored the constraint would bind
// Caller here and report it pure.
func F(q *int) {}
