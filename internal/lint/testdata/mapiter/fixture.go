// Fixture for the mapiter analyzer: unsafe ranges are flagged, the two
// recognized safe idioms (collect-then-sort, drain) pass, and pragma
// suppression works with production semantics.
package fixture

import "sort"

type counters map[string]int

// sum iterates a map and folds order-sensitively visible state — flagged.
func sum(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "range over map m"
		out = append(out, v)
	}
	return out
}

// namedType ranges a named map type — still flagged.
func namedType(c counters) {
	for k := range c { // want "range over map c"
		_ = k
	}
}

// inClosure ranges a map inside a function literal — flagged there.
func inClosure(m map[string]int) func() []int {
	return func() []int {
		var vs []int
		for _, v := range m { // want "range over map m"
			vs = append(vs, v)
		}
		return vs
	}
}

// keysSorted is the canonical safe idiom: collect, then destroy the
// nondeterminism with a sort. Not flagged.
func keysSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// drain removes every element — order cannot matter. Not flagged.
func drain(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

// overSlice ranges a slice — maps only. Not flagged.
func overSlice(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// suppressedTrailing carries the pragma on the offending line.
func suppressedTrailing(m map[string]int) int {
	n := 0
	for range m { //lint:ignore mapiter commutative count, order-free
		n++
	}
	return n
}

// suppressedOwnLine carries the pragma on its own line above.
func suppressedOwnLine(m map[string]int) int {
	n := 0
	//lint:ignore mapiter commutative count, order-free
	for range m {
		n++
	}
	return n
}

// wrongAnalyzer names a different analyzer — does not suppress mapiter.
func wrongAnalyzer(m map[string]int) {
	//lint:ignore hotpath reason that does not cover mapiter
	for k := range m { // want "range over map m"
		_ = k
	}
}

// malformed has no reason: the pragma itself is a finding and suppresses
// nothing.
func malformed(m map[string]int) int {
	n := 0
	//lint:ignore mapiter
	for range m { // want-1 "malformed //lint:ignore pragma" want "range over map m"
		n++
	}
	return n
}

// trailingStaysOnItsLine: a trailing pragma covers its own line only, so
// the map range on the line below it is still flagged.
func trailingStaysOnItsLine(m, o map[string]int) int {
	n := 0
	for range m { //lint:ignore mapiter commutative count, order-free
		for range o { // want "range over map o"
			n++
		}
	}
	return n
}
