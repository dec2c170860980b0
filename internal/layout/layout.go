// Package layout assigns shared-memory addresses to parc data.
//
// The layout is where the shared data transformations become physical:
// the transformation pass emits Directives (alignment, element padding,
// row padding) and rewrites declarations; this package turns the
// (possibly transformed) declarations plus directives into concrete
// byte addresses, strides and struct offsets for the virtual machine
// and the cache simulator.
//
// Address space map (byte-addressed):
//
//	0x0          null page (never mapped)
//	GlobalBase   shared globals and locks, in declaration order
//	heap         shared heap (alloc), block-aligned start
//	arenas       one per-process arena (allocpp), each block-aligned
//
// The heap (a fixed 16 MiB) and the arenas are reservations, not
// allocations: the VM backs the space lazily in 4 KiB pages created
// on first write, so only the pages a program touches cost memory.
package layout

import (
	"fmt"
	"sort"
	"strings"

	"falseshare/internal/faultinject"
	"falseshare/internal/lang/types"
)

// GlobalBase is the address of the first shared global.
const GlobalBase int64 = 0x1000

// MaxSpace bounds every address space the VM runs a program in: the
// shared space (globals, heap and arenas) and each process's private
// space. The VM allocates one page-directory pointer per 4 KiB page of
// a space up front, so a 4 GiB space costs an 8 MiB directory.
const MaxSpace int64 = 1 << 32

// ErrTooLarge reports an object or address space whose size overflows
// or exceeds MaxSpace. Layout fails with it at compile time, instead
// of wrapping the size around or sizing a page directory the VM
// cannot allocate.
var ErrTooLarge = fmt.Errorf("size exceeds %d bytes", MaxSpace)

// mulSize multiplies two positive sizes, failing with ErrTooLarge when
// the product exceeds MaxSpace.
func mulSize(a, b int64) (int64, error) {
	if a < 0 || b < 0 || (a > 0 && b > MaxSpace/a) {
		return 0, ErrTooLarge
	}
	return a * b, nil
}

// addSize adds two sizes, failing with ErrTooLarge when the sum
// exceeds MaxSpace.
func addSize(a, b int64) (int64, error) {
	if a < 0 || b < 0 || a > MaxSpace-b {
		return 0, ErrTooLarge
	}
	return a + b, nil
}

// VarError is a layout failure attributable to one shared global. The
// restructurer uses the attribution to roll back just the
// transformations that touch that object (per-object degradation)
// instead of failing the whole compile.
type VarError struct {
	Name string // the shared global whose layout failed
	Err  error
}

func (e *VarError) Error() string { return fmt.Sprintf("layout: global %q: %v", e.Name, e.Err) }

func (e *VarError) Unwrap() error { return e.Err }

// Directives carry the data-transformation decisions that affect
// memory layout. Keys are global variable names (after any renaming
// done by the transformation pass).
type Directives struct {
	// BlockSize is the coherence block size padding targets. Zero
	// means "no transformation-driven padding anywhere".
	BlockSize int64
	// AlignVar aligns a global's base address to the given boundary.
	AlignVar map[string]int64
	// PadElem pads a global's innermost element stride up to a
	// multiple of the given size (pad & align; grouped per-process
	// records; padded locks).
	PadElem map[string]int64
	// PadRow pads the outermost-dimension stride (the per-process row
	// of a transposed or reshaped array) to a multiple of the size.
	PadRow map[string]int64
	// PadHeapElem pads elements of the heap array assigned to the
	// named shared global pointer.
	PadHeapElem map[string]int64
}

// NewDirectives returns empty directives for a block size.
func NewDirectives(blockSize int64) *Directives {
	return &Directives{
		BlockSize:   blockSize,
		AlignVar:    map[string]int64{},
		PadElem:     map[string]int64{},
		PadRow:      map[string]int64{},
		PadHeapElem: map[string]int64{},
	}
}

// String renders the directives deterministically.
func (d *Directives) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block=%d\n", d.BlockSize)
	dump := func(label string, m map[string]int64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s %d\n", label, k, m[k])
		}
	}
	dump("align", d.AlignVar)
	dump("padElem", d.PadElem)
	dump("padRow", d.PadRow)
	dump("padHeapElem", d.PadHeapElem)
	return sb.String()
}

// StructLayout is the concrete layout of a struct type.
type StructLayout struct {
	Name    string
	Size    int64
	Align   int64
	Offsets []int64 // by field index
}

// FieldAt returns the index of the field containing byte offset off
// (relative to the struct base): the last field whose offset is <=
// off, so alignment padding counts toward the field it follows. It
// returns -1 when off is negative or past the struct (element
// padding). Offsets are ascending by construction.
func (sl *StructLayout) FieldAt(off int64) int {
	if off < 0 || off >= sl.Size {
		return -1
	}
	for i := len(sl.Offsets) - 1; i >= 0; i-- {
		if off >= sl.Offsets[i] {
			return i
		}
	}
	return -1
}

// VarLayout is the concrete layout of one shared global.
type VarLayout struct {
	Name string
	Sym  *types.Symbol
	Base int64
	// Dims are the concrete extents, outermost first (empty: scalar).
	Dims []int64
	// Strides are the byte strides per dimension, outermost first.
	// The address of v[i0][i1]... is Base + sum_k i_k * Strides[k].
	Strides []int64
	// ElemSize is the byte size of the scalar element itself (without
	// padding); loads/stores use this width.
	ElemSize int64
	// Total is the padded total byte size.
	Total int64
}

// Layout is the complete address map of a program configuration.
type Layout struct {
	Info      *types.Info
	Dirs      *Directives
	Nprocs    int64
	Vars      map[string]*VarLayout
	Structs   map[string]*StructLayout
	Order     []string // globals in declaration order
	HeapBase  int64
	ArenaBase int64 // first arena; arena p starts at ArenaBase + p*ArenaSize
	ArenaSize int64
	// End is the first address past the arenas.
	End int64
}

// DefaultArenaSize is the per-process arena for allocpp storage.
const DefaultArenaSize int64 = 1 << 20

// Compute builds the layout for a checked program.
func Compute(info *types.Info, dirs *Directives, nprocs int64) (*Layout, error) {
	if dirs == nil {
		dirs = NewDirectives(0)
	}
	l := &Layout{
		Info:    info,
		Dirs:    dirs,
		Nprocs:  nprocs,
		Vars:    map[string]*VarLayout{},
		Structs: map[string]*StructLayout{},
	}
	// Struct layouts first (fields may be needed for element sizes).
	for name := range info.Structs {
		if _, err := l.structLayout(name, map[string]bool{}); err != nil {
			return nil, err
		}
	}

	addr := GlobalBase
	for _, g := range info.File.Globals {
		sym := info.Globals[g.Name]
		if sym == nil || !sym.IsShared() {
			continue
		}
		// Per-object fault point: chaos tests target one global here to
		// assert it alone degrades to the identity layout.
		if err := faultinject.Fire(nil, "layout", g.Name); err != nil {
			return nil, &VarError{Name: g.Name, Err: err}
		}
		vl, err := l.varLayout(sym)
		if err != nil {
			return nil, &VarError{Name: g.Name, Err: err}
		}
		align := l.alignOf(sym.Type)
		if a, ok := dirs.AlignVar[g.Name]; ok && a > align {
			align = a
		}
		addr = roundUp(addr, align)
		vl.Base = addr
		if addr, err = addSize(addr, vl.Total); err != nil {
			return nil, &VarError{Name: g.Name, Err: fmt.Errorf("shared space: %w", err)}
		}
		l.Vars[g.Name] = vl
		l.Order = append(l.Order, g.Name)
	}

	block := dirs.BlockSize
	if block < 64 {
		block = 64
	}
	l.HeapBase = roundUp(addr, block*4)
	heapSize := int64(1 << 24) // 16 MiB shared heap
	l.ArenaBase = l.HeapBase + heapSize
	l.ArenaSize = DefaultArenaSize
	arenas, err := mulSize(l.ArenaSize, nprocs)
	if err == nil {
		l.End, err = addSize(l.ArenaBase, arenas)
	}
	if err != nil {
		return nil, fmt.Errorf("layout: shared space at %d processes: %w", nprocs, err)
	}
	return l, nil
}

// Var returns the layout of a shared global, or nil.
func (l *Layout) Var(name string) *VarLayout { return l.Vars[name] }

// Struct returns the layout of a struct type.
func (l *Layout) Struct(name string) *StructLayout { return l.Structs[name] }

// ArenaStart returns the base address of process p's arena.
func (l *Layout) ArenaStart(p int64) int64 { return l.ArenaBase + p*l.ArenaSize }

// SizeOf returns the allocated byte size of a type (for alloc).
func (l *Layout) SizeOf(t *types.Type) (int64, error) {
	switch t.Kind {
	case types.Int, types.Double, types.Pointer, types.LockT:
		return t.ScalarSize()
	case types.StructK:
		sl := l.Structs[t.Struct.Name]
		if sl == nil {
			return 0, fmt.Errorf("layout: unknown struct %q", t.Struct.Name)
		}
		return sl.Size, nil
	case types.Array:
		dims, ok := types.ArrayDims(t, l.Nprocs)
		if !ok {
			return 0, fmt.Errorf("layout: non-constant array extent")
		}
		es, err := l.SizeOf(types.ElemType(t))
		if err != nil {
			return 0, err
		}
		n := es
		for _, d := range dims {
			if n, err = mulSize(n, d); err != nil {
				return 0, fmt.Errorf("layout: array %s: %w", t, err)
			}
		}
		return n, nil
	}
	return 0, fmt.Errorf("layout: cannot size type %s", t)
}

func (l *Layout) alignOf(t *types.Type) int64 {
	switch t.Kind {
	case types.Int, types.LockT:
		return 4
	case types.Double, types.Pointer:
		return 8
	case types.Array:
		return l.alignOf(types.ElemType(t))
	case types.StructK:
		if sl := l.Structs[t.Struct.Name]; sl != nil {
			return sl.Align
		}
	}
	return 8
}

func (l *Layout) structLayout(name string, visiting map[string]bool) (*StructLayout, error) {
	if sl, ok := l.Structs[name]; ok {
		return sl, nil
	}
	if visiting[name] {
		return nil, fmt.Errorf("layout: recursive struct embedding in %q", name)
	}
	visiting[name] = true
	si := l.Info.Structs[name]
	if si == nil {
		return nil, fmt.Errorf("layout: unknown struct %q", name)
	}
	sl := &StructLayout{Name: name, Align: 4}
	off := int64(0)
	for _, f := range si.Fields {
		fsize, falign, err := l.fieldSize(f.Type, visiting)
		if err != nil {
			return nil, err
		}
		off = roundUp(off, falign)
		sl.Offsets = append(sl.Offsets, off)
		if off, err = addSize(off, fsize); err != nil {
			return nil, fmt.Errorf("layout: struct %q: %w", name, err)
		}
		if falign > sl.Align {
			sl.Align = falign
		}
	}
	sl.Size = roundUp(off, sl.Align)
	if sl.Size == 0 {
		sl.Size = sl.Align
	}
	l.Structs[name] = sl
	delete(visiting, name)
	return sl, nil
}

func (l *Layout) fieldSize(t *types.Type, visiting map[string]bool) (size, align int64, err error) {
	switch t.Kind {
	case types.Int, types.LockT:
		return t.MustScalarSize(), 4, nil
	case types.Double, types.Pointer:
		return t.MustScalarSize(), 8, nil
	case types.Array:
		dims, ok := types.ArrayDims(t, l.Nprocs)
		if !ok {
			return 0, 0, fmt.Errorf("layout: non-constant field array extent")
		}
		es, ea, err := l.fieldSize(types.ElemType(t), visiting)
		if err != nil {
			return 0, 0, err
		}
		n := es
		for _, d := range dims {
			if n, err = mulSize(n, d); err != nil {
				return 0, 0, fmt.Errorf("layout: field array %s: %w", t, err)
			}
		}
		return n, ea, nil
	case types.StructK:
		sl, err := l.structLayout(t.Struct.Name, visiting)
		if err != nil {
			return 0, 0, err
		}
		return sl.Size, sl.Align, nil
	}
	return 0, 0, fmt.Errorf("layout: cannot size field type %s", t)
}

// varLayout computes dims, strides and sizes for one global.
func (l *Layout) varLayout(sym *types.Symbol) (*VarLayout, error) {
	vl := &VarLayout{Name: sym.Name, Sym: sym}
	t := sym.Type
	dims, ok := types.ArrayDims(t, l.Nprocs)
	if !ok && t.Kind == types.Array {
		return nil, fmt.Errorf("non-constant extent")
	}
	vl.Dims = dims

	elem := types.ElemType(t)
	var esize int64
	switch elem.Kind {
	case types.StructK:
		sl := l.Structs[elem.Struct.Name]
		if sl == nil {
			return nil, fmt.Errorf("unknown struct %q", elem.Struct.Name)
		}
		esize = sl.Size
	default:
		var err error
		esize, err = elem.ScalarSize()
		if err != nil {
			return nil, err
		}
	}
	vl.ElemSize = esize

	// Element stride: padded when directed (pad & align, grouping).
	stride := esize
	if pad, ok := l.Dirs.PadElem[sym.Name]; ok && pad > 0 {
		stride = roundUp(stride, pad)
	}

	if len(dims) == 0 {
		vl.Total = stride
		return vl, nil
	}
	// Strides inner to outer.
	strides := make([]int64, len(dims))
	strides[len(dims)-1] = stride
	for i := len(dims) - 2; i >= 0; i-- {
		row, err := mulSize(strides[i+1], dims[i+1])
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if pad, ok := l.Dirs.PadRow[sym.Name]; ok && pad > 0 {
				row = roundUp(row, pad)
			}
		}
		strides[i] = row
	}
	vl.Strides = strides
	total, err := mulSize(strides[0], dims[0])
	if err != nil {
		return nil, err
	}
	// Row padding of a 1-D array is meaningless; PadRow applies to the
	// outermost dimension of rank >= 2 arrays only.
	vl.Total = total
	return vl, nil
}

// Address computes the address of v[indices...]; len(indices) may be
// less than the rank when taking a row base.
func (vl *VarLayout) Address(indices []int64) int64 {
	a := vl.Base
	for k, idx := range indices {
		a += idx * vl.Strides[k]
	}
	return a
}

func roundUp(v, align int64) int64 {
	if align <= 1 {
		return v
	}
	return (v + align - 1) / align * align
}

// RoundUp exposes the padding arithmetic for other packages.
func RoundUp(v, align int64) int64 { return roundUp(v, align) }
