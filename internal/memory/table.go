package memory

// TablePage is the number of entries in one page of a Table.
const TablePage = 1 << tablePageBits

const tablePageBits = 12

// Table is a dense per-block table: entry i belongs to block i, the block
// of addresses [i*blockBytes, (i+1)*blockBytes) for whatever block size the
// caller indexes by (a cache line, a VM page). Storage is paged, TablePage
// entries a page, and a page is allocated on its first use, so a table
// costs memory only near the blocks it was asked about. Spaces are bump
// allocators over a few fixed, contiguous ranges, so touched blocks are
// clustered and a dense table needs no hashing. The zero Table is empty
// and ready to use.
type Table[T any] struct {
	pages []*[TablePage]T
}

// At returns the entry for block i, allocating its page on first use.
func (t *Table[T]) At(i uint64) *T {
	p := i >> tablePageBits
	if p >= uint64(len(t.pages)) || t.pages[p] == nil {
		t.alloc(p)
	}
	return &t.pages[p][i&(TablePage-1)]
}

func (t *Table[T]) alloc(p uint64) {
	if p >= uint64(len(t.pages)) {
		t.pages = append(t.pages, make([]*[TablePage]T, p+1-uint64(len(t.pages)))...)
	}
	t.pages[p] = new([TablePage]T)
}

// Each calls fn for every entry of every allocated page, in ascending
// block order. Entries never written hold the zero value.
func (t *Table[T]) Each(fn func(i uint64, v *T)) {
	for p, pg := range t.pages {
		if pg == nil {
			continue
		}
		base := uint64(p) << tablePageBits
		for j := range pg {
			fn(base+uint64(j), &pg[j])
		}
	}
}
