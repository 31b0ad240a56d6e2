// Package a exercises maporder's ordering-sensitive sinks that need no
// repo imports: appends, channel sends, output writes, rng streams.
package a

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

func appendValueToOuter(m map[string]int) []int {
	var vals []int
	for _, v := range m { // want "append to slice declared outside the loop"
		vals = append(vals, v)
	}
	return vals
}

func channelSend(m map[string]int, ch chan int) {
	for _, v := range m { // want "channel send"
		ch <- v
	}
}

func printOutput(m map[string]int) {
	for k, v := range m { // want "output write fmt.Printf"
		fmt.Printf("%s=%d\n", k, v)
	}
}

func builderWrite(m map[string]int, b *strings.Builder) {
	for k := range m { // want `output write .WriteString`
		b.WriteString(k)
	}
}

func rngDraw(m map[string]int, rng *rand.Rand) int {
	total := 0
	for range m { // want "seeded .rand.Rand stream passed into call"
		total += pick(rng)
	}
	return total
}

func pick(rng *rand.Rand) int { return rng.Intn(8) }

// The first half of the fix idiom without the second: the keys leave
// in map order.
func keyCollectNeverSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want "append to slice declared outside the loop"
		keys = append(keys, k)
	}
	return keys
}

// Neither a sort before the collect nor a sort of some other slice
// orders what was collected.
func keyCollectWrongSort(m map[string]int, keys, other []string) []string {
	sort.Strings(keys)
	for k := range m { // want "append to slice declared outside the loop"
		keys = append(keys, k)
	}
	sort.Strings(other)
	return keys
}

// --- allowed ---

func keyCollectIdent(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // the sort-then-iterate idiom: not flagged
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type holder struct{ keys []string }

func keyCollectField(m map[string]int, h *holder) {
	for k := range m {
		h.keys = append(h.keys, k)
	}
	slices.SortFunc(h.keys, strings.Compare)
}

func keyCollectWrappedSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	return keys
}

func loopLocalAppend(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		local := []int{}
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

func commutative(m map[string]int, out map[string]int) int {
	sum := 0
	for k, v := range m {
		sum += v
		out[k] = v * 2
		delete(out, k+"x")
	}
	return sum
}

// --- suppressed ---

func suppressed(m map[string]int, ch chan int) {
	//hetmp:allow maporder -- fixture: order genuinely immaterial, receiver drains into a set
	for _, v := range m {
		ch <- v
	}
}

func suppressedKeyCollect(m map[string]int) []string {
	var keys []string
	//hetmp:allow maporder -- fixture: the one caller sorts what it is handed
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
