// Package allocdiscipline is the golden input for the preallocation
// analyzer: flagged makes are grown by append in loops with proven trip
// bounds; silent ones have unprovable bounds or disqualifying writes.
package allocdiscipline

var modes = []int{1, 2, 3, 4}

func preallocProvable() []int {
	out := make([]int, 0) // want "preallocate with make"
	for _, m := range modes {
		out = append(out, m*2)
	}
	return out
}

func preallocTwoPerIter() []int {
	out := make([]int, 0) // want "at most 12 element"
	for i := 0; i < 6; i++ {
		out = append(out, i, -i)
	}
	return out
}

func unprovableTrips(n int) []int {
	out := make([]int, 0) // loop bound unknown: silent
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

func alreadyCapped() []int {
	out := make([]int, 0, len(modes)) // has a capacity: silent
	for _, m := range modes {
		out = append(out, m)
	}
	return out
}

func reassigned() []int {
	out := make([]int, 0) // reassigned to something else: silent
	for _, m := range modes {
		out = append(out, m)
	}
	out = nil
	return out
}

func spreadAppend(extra []int) []int {
	out := make([]int, 0) // spread defeats element counting: silent
	for range modes {
		out = append(out, extra...)
	}
	return out
}

func appendOutsideLoop() []int {
	out := make([]int, 0) // no loop growth: silent
	out = append(out, 1)
	return out
}

// cappedGeneric is alreadyCapped over a type parameter: the report still
// sizes its element, and a T has no size until it is instantiated.
func cappedGeneric[T any](x T) []T {
	out := make([]T, 0, len(modes)) // has a capacity: silent
	for range modes {
		out = append(out, x)
	}
	return out
}

// pairOf holds a T by value, so its size is the instantiation's too.
type pairOf[T any] struct{ a, b T }

func genericPairs[T any](n int) []pairOf[T] { return make([]pairOf[T], n) }
