// Package buildtags pins build-constraint selection: of the two
// declarations of F, only the one the build context selects is
// lowered, so Caller modifies its argument.
package buildtags

// Caller modifies x through the selected F.
func Caller(x *int) { F(x) }
