package vm

import "encoding/binary"

// Page geometry of a space: 4 KiB pages, created on first write.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// space is a lazily backed, byte-addressed memory of a fixed size.
// Only the page directory is allocated up front; a page is created on
// its first write, and a page never written reads as zero. So a
// machine costs memory in proportion to what its program touches, not
// to the heap and arenas the layout reserves.
//
// Callers bound-check every access against size first. Loads and
// stores that straddle a page boundary take the slow byte path.
type space struct {
	pages []*[pageSize]byte
	size  int64
}

// newSpace sizes the directory for size bytes; layout rejects spaces
// past layout.MaxSpace, so the directory stays within a few MiB.
func newSpace(size int64) space {
	return space{pages: make([]*[pageSize]byte, (size+pageMask)>>pageShift), size: size}
}

// load reads a 4-byte (sign-extended) or 8-byte little-endian word.
func (s *space) load(addr int64, size int) int64 {
	o := addr & pageMask
	if o+int64(size) > pageSize {
		return s.loadSlow(addr, size)
	}
	pg := s.pages[addr>>pageShift]
	if pg == nil {
		return 0
	}
	return rd(pg[o:], size)
}

// store writes a 4- or 8-byte little-endian word.
func (s *space) store(addr, v int64, size int) {
	o := addr & pageMask
	if o+int64(size) > pageSize {
		s.storeSlow(addr, v, size)
		return
	}
	wr(s.page(addr)[o:], v, size)
}

// page returns the page holding addr, creating it if needed.
func (s *space) page(addr int64) *[pageSize]byte {
	i := addr >> pageShift
	pg := s.pages[i]
	if pg == nil {
		pg = new([pageSize]byte)
		s.pages[i] = pg
	}
	return pg
}

func (s *space) loadSlow(addr int64, size int) int64 {
	var b [8]byte
	for i := range size {
		a := addr + int64(i)
		if pg := s.pages[a>>pageShift]; pg != nil {
			b[i] = pg[a&pageMask]
		}
	}
	return rd(b[:], size)
}

func (s *space) storeSlow(addr, v int64, size int) {
	var b [8]byte
	wr(b[:], v, size)
	for i := range size {
		a := addr + int64(i)
		s.page(a)[a&pageMask] = b[i]
	}
}

// clear zeroes [addr, addr+n), touching only pages that exist: a
// missing page already reads as zero.
func (s *space) clear(addr, n int64) {
	for end := addr + n; addr < end; {
		o := addr & pageMask
		k := min(pageSize-o, end-addr)
		if pg := s.pages[addr>>pageShift]; pg != nil {
			clear(pg[o : o+k])
		}
		addr += k
	}
}

func rd(b []byte, size int) int64 {
	if size == 4 {
		return int64(int32(binary.LittleEndian.Uint32(b)))
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func wr(b []byte, v int64, size int) {
	if size == 4 {
		binary.LittleEndian.PutUint32(b, uint32(v))
	} else {
		binary.LittleEndian.PutUint64(b, uint64(v))
	}
}
