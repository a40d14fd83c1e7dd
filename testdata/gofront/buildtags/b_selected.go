package buildtags

// F is the variant every build selects: it writes through q.
func F(q *int) { *q = 1 }
