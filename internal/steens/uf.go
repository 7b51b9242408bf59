package steens

// uf is a union-find over dense node ids with union by rank and path
// halving, the structure that makes constraint application near-linear
// (inverse-Ackermann amortized per operation).
type uf struct {
	parent []int32
	rank   []uint8
}

// makeNode appends a fresh singleton class and returns its id.
func (u *uf) makeNode() int32 {
	id := int32(len(u.parent))
	u.parent = append(u.parent, id)
	u.rank = append(u.rank, 0)
	return id
}

// find returns n's class representative, halving the path on the way
// so repeated queries approach O(1).
func (u *uf) find(n int32) int32 {
	for u.parent[n] != n {
		u.parent[n] = u.parent[u.parent[n]]
		n = u.parent[n]
	}
	return n
}

// root returns n's class representative without modifying the
// structure, so concurrent queries may share it.
func (u *uf) root(n int32) int32 {
	for u.parent[n] != n {
		n = u.parent[n]
	}
	return n
}

// flatten points every node directly at its representative, so root
// takes at most one step once solving is done.
func (u *uf) flatten() {
	for n := range u.parent {
		u.parent[n] = u.find(int32(n))
	}
}

// union merges the classes of a and b and returns (winner, loser) as
// representatives; when already unified, winner == loser.
func (u *uf) union(a, b int32) (winner, loser int32) {
	a, b = u.find(a), u.find(b)
	if a == b {
		return a, a
	}
	if u.rank[a] < u.rank[b] {
		a, b = b, a
	} else if u.rank[a] == u.rank[b] {
		u.rank[a]++
	}
	u.parent[b] = a
	return a, b
}

// len returns the number of nodes.
func (u *uf) len() int { return len(u.parent) }
