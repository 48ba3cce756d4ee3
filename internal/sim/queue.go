package sim

// entry is one priority-queue element: a compact by-value copy of the
// event's ordering key plus its slab address. 24 bytes, so bucket
// moves are plain value copies and comparisons never touch the
// slab. gen detects lazily-deleted entries at pop time.
type entry struct {
	when Time
	seq  uint64
	idx  uint32
	gen  uint32
}

// entryLess orders entries by (when, seq): time first, FIFO within a
// time. seq is unique per scheduler, so the order is total: any correct
// priority queue pops a given entry stream in exactly one sequence.
func entryLess(a, b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
