// Package dsm (segment-matched to hetmp/internal/dsm) exercises the
// dsmstate analyzer: the sanctioned helpers mutate freely, local
// copies are legal anywhere, and any other write to shared pageState
// storage is flagged.
package dsm

const noWriter = -1

type pageState struct {
	writer  int8
	copyset uint16
}

type Region struct {
	pages []pageState
}

func Alloc(n, home int) *Region {
	pages := make([]pageState, n)
	for i := range pages {
		pages[i] = pageState{writer: int8(home), copyset: 1 << home}
	}
	return &Region{pages: pages}
}

func (r *Region) SettleAt(node int) {
	for i := range r.pages {
		r.pages[i] = pageState{writer: int8(node), copyset: 1 << node}
	}
}

func (r *Region) faultPage(pg, node int) {
	st := r.pages[pg]
	r.pages[pg] = pageState{writer: noWriter, copyset: st.copyset | 1<<node}
}

func (r *Region) accessRun(pg, k, node int) {
	for i := pg; i < pg+k; i++ {
		r.faultPage(i, node)
	}
}

// owner reads shared state and writes a LOCAL COPY: legal everywhere.
func (r *Region) owner(pg int) int {
	st := r.pages[pg]
	if st.writer == noWriter {
		st.writer = 0 // copy only — never flagged
	}
	return int(st.writer)
}

// evict writes shared state outside the sanctioned helpers.
func (r *Region) evict(pg int) {
	r.pages[pg] = pageState{} // want `pageState may only be mutated by the sanctioned protocol helpers`
}

// demote shows a field store through a slice element.
func (r *Region) demote(pg int) {
	r.pages[pg].writer = noWriter // want `pageState may only be mutated by the sanctioned protocol helpers`
}

// poison shows a store through a *pageState.
func poison(st *pageState) {
	st.copyset = 0 // want `pageState may only be mutated by the sanctioned protocol helpers`
}
