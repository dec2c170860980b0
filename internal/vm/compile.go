package vm

import (
	"fmt"
	"math"

	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/token"
	"falseshare/internal/lang/types"
	"falseshare/internal/layout"
)

// Compile translates a checked, laid-out parc program to bytecode.
func Compile(file *ast.File, info *types.Info, lay *layout.Layout, nprocs int) (*Program, error) {
	c := &compiler{
		file: file, info: info, lay: lay, nprocs: nprocs,
		prog: &Program{
			FuncID:    map[string]int{},
			SharedEnd: lay.End,
			HeapBase:  lay.HeapBase,
			ArenaBase: lay.ArenaBase,
			ArenaSize: lay.ArenaSize,
			Nprocs:    nprocs,
		},
		privAddr: map[string]int64{},
	}
	if err := c.layoutPrivate(); err != nil {
		return nil, err
	}
	for i, fn := range file.Funcs {
		c.prog.FuncID[fn.Name] = i
	}
	for _, fn := range file.Funcs {
		f, err := c.function(fn)
		if err != nil {
			return nil, err
		}
		c.prog.Funcs = append(c.prog.Funcs, f)
	}
	main, ok := c.prog.FuncID["main"]
	if !ok {
		return nil, fmt.Errorf("vm: no main")
	}
	c.prog.Main = main
	return c.prog, nil
}

type compiler struct {
	file   *ast.File
	info   *types.Info
	lay    *layout.Layout
	nprocs int
	prog   *Program

	privAddr map[string]int64 // private globals -> private-space offset

	// per-function state
	fn   *types.FuncInfo
	code []Instr
	line int
}

// layoutPrivate assigns private-space offsets to private globals.
func (c *compiler) layoutPrivate() error {
	off := int64(16) // keep 0 unused
	for _, g := range c.file.Globals {
		sym := c.info.Globals[g.Name]
		if sym == nil || sym.Storage != ast.Private {
			continue
		}
		size, err := c.lay.SizeOf(sym.Type)
		if err == nil && off+size > layout.MaxSpace {
			err = layout.ErrTooLarge
		}
		if err != nil {
			return fmt.Errorf("vm: private global %q: %w", g.Name, err)
		}
		align := int64(8)
		off = layout.RoundUp(off, align)
		c.privAddr[g.Name] = off
		off += size
	}
	// Headroom for per-frame local arrays.
	c.prog.PrivSize = layout.RoundUp(off, 8) + 1<<20
	return nil
}

func (c *compiler) emit(op Op, a, b int64) int {
	c.code = append(c.code, Instr{Op: op, A: a, B: b, Line: int32(c.line)})
	return len(c.code) - 1
}

func (c *compiler) at(pos token.Pos) {
	if pos.IsValid() {
		c.line = pos.Line
	}
}

func (c *compiler) errorf(pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("vm: %s: %s", pos, fmt.Sprintf(format, args...))
}

func (c *compiler) function(fn *ast.FuncDecl) (*Func, error) {
	fi := c.info.Funcs[fn.Name]
	c.fn = fi
	c.code = nil
	if err := c.stmt(fn.Body); err != nil {
		return nil, err
	}
	if fn.Name == "main" {
		c.emit(OpHalt, 0, 0)
	} else {
		c.emit(OpRet, 0, 0)
	}
	return &Func{
		Name:    fn.Name,
		ID:      c.prog.FuncID[fn.Name],
		NParams: len(fi.Params),
		NLocals: len(fi.Locals),
		Code:    c.code,
	}, nil
}

// width returns the access width for a scalar type.
func width(t *types.Type) int64 {
	switch t.Kind {
	case types.Int, types.LockT:
		return 4
	default:
		return 8
	}
}

func (c *compiler) loadOp(t *types.Type) Op {
	if width(t) == 4 {
		return OpLoad4
	}
	return OpLoad8
}

func (c *compiler) storeOp(t *types.Type) Op {
	if width(t) == 4 {
		return OpStore4
	}
	return OpStore8
}

// ---------------------------------------------------------------------------
// Statements

func (c *compiler) stmt(s ast.Stmt) error {
	c.at(s.Pos())
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, st := range x.List {
			if err := c.stmt(st); err != nil {
				return err
			}
		}
		return nil

	case *ast.DeclStmt:
		sym := c.info.LocalDecls[x.Decl]
		if sym == nil {
			return c.errorf(x.P, "unresolved local %q", x.Decl.Name)
		}
		if sym.Type.Kind == types.Array {
			size, err := c.lay.SizeOf(sym.Type)
			if err != nil {
				return fmt.Errorf("vm: %s: local array %q: %w", x.P, x.Decl.Name, err)
			}
			c.emit(OpLocalArr, size, int64(sym.Slot))
			return nil
		}
		if x.Init != nil {
			if err := c.exprAs(x.Init, sym.Type); err != nil {
				return err
			}
			c.emit(OpStoreLocal, int64(sym.Slot), 0)
		}
		return nil

	case *ast.AssignStmt:
		return c.assign(x)

	case *ast.ExprStmt:
		call, ok := x.X.(*ast.CallExpr)
		if !ok {
			return c.errorf(x.P, "expression statement must be a call")
		}
		if err := c.expr(call); err != nil {
			return err
		}
		if fi := c.info.Funcs[call.Name]; fi != nil && fi.Ret.Kind != types.Void {
			c.emit(OpPop, 0, 0)
		}
		return nil

	case *ast.IfStmt:
		if err := c.expr(x.Cond); err != nil {
			return err
		}
		jz := c.emit(OpJz, 0, 0)
		if err := c.stmt(x.Then); err != nil {
			return err
		}
		if x.Else != nil {
			jmp := c.emit(OpJmp, 0, 0)
			c.code[jz].A = int64(len(c.code))
			if err := c.stmt(x.Else); err != nil {
				return err
			}
			c.code[jmp].A = int64(len(c.code))
		} else {
			c.code[jz].A = int64(len(c.code))
		}
		return nil

	case *ast.WhileStmt:
		top := len(c.code)
		if err := c.expr(x.Cond); err != nil {
			return err
		}
		jz := c.emit(OpJz, 0, 0)
		if err := c.stmt(x.Body); err != nil {
			return err
		}
		c.emit(OpJmp, int64(top), 0)
		c.code[jz].A = int64(len(c.code))
		return nil

	case *ast.ForStmt:
		if x.Init != nil {
			if err := c.stmt(x.Init); err != nil {
				return err
			}
		}
		top := len(c.code)
		jz := -1
		if x.Cond != nil {
			if err := c.expr(x.Cond); err != nil {
				return err
			}
			jz = c.emit(OpJz, 0, 0)
		}
		if err := c.stmt(x.Body); err != nil {
			return err
		}
		if x.Post != nil {
			if err := c.stmt(x.Post); err != nil {
				return err
			}
		}
		c.emit(OpJmp, int64(top), 0)
		if jz >= 0 {
			c.code[jz].A = int64(len(c.code))
		}
		return nil

	case *ast.ReturnStmt:
		if x.X != nil {
			if err := c.exprAs(x.X, c.fn.Ret); err != nil {
				return err
			}
			c.emit(OpRetV, 0, 0)
		} else {
			c.emit(OpRet, 0, 0)
		}
		return nil

	case *ast.BarrierStmt:
		c.emit(OpBarrier, 0, 0)
		return nil

	case *ast.AcquireStmt:
		if err := c.addr(x.Lock); err != nil {
			return err
		}
		c.emit(OpLockAcq, 0, 0)
		return nil

	case *ast.ReleaseStmt:
		if err := c.addr(x.Lock); err != nil {
			return err
		}
		c.emit(OpLockRel, 0, 0)
		return nil
	}
	return c.errorf(s.Pos(), "unhandled statement")
}

// assign compiles LHS = RHS.
func (c *compiler) assign(x *ast.AssignStmt) error {
	lt := c.info.TypeOf(x.LHS)
	if lt == nil {
		return c.errorf(x.P, "untyped assignment target")
	}
	// Local scalar: store to slot.
	if id, ok := x.LHS.(*ast.Ident); ok {
		sym := c.info.Uses[id]
		if sym != nil && (sym.Kind == types.LocalVar || sym.Kind == types.ParamVar) {
			if err := c.exprAs(x.RHS, lt); err != nil {
				return err
			}
			c.emit(OpStoreLocal, int64(sym.Slot), 0)
			return nil
		}
	}
	// Heap element padding: g = alloc(T, n) where g has a pad
	// directive takes a padded element stride.
	if id, ok := x.LHS.(*ast.Ident); ok {
		if al, ok2 := x.RHS.(*ast.AllocExpr); ok2 {
			if pad, ok3 := c.lay.Dirs.PadHeapElem[id.Name]; ok3 && pad > 0 {
				if err := c.alloc(al, pad); err != nil {
					return err
				}
				return c.storeTo(x.LHS, lt)
			}
		}
	}
	if err := c.exprAs(x.RHS, lt); err != nil {
		return err
	}
	return c.storeTo(x.LHS, lt)
}

// storeTo emits the address computation and store for an lvalue whose
// value is already on the stack.
func (c *compiler) storeTo(lhs ast.Expr, lt *types.Type) error {
	if err := c.addr(lhs); err != nil {
		return err
	}
	c.emit(c.storeOp(lt), 0, 0)
	return nil
}

// ---------------------------------------------------------------------------
// Expressions

// exprAs compiles e and converts the result to type want (int ->
// double promotion only).
func (c *compiler) exprAs(e ast.Expr, want *types.Type) error {
	if err := c.expr(e); err != nil {
		return err
	}
	et := c.info.TypeOf(e)
	if want != nil && want.Kind == types.Double && et != nil && et.Kind == types.Int {
		c.emit(OpI2F, 0, 0)
	}
	return nil
}

func (c *compiler) expr(e ast.Expr) error {
	c.at(e.Pos())
	switch x := e.(type) {
	case *ast.IntLit:
		c.emit(OpPush, x.Value, 0)
		return nil
	case *ast.FloatLit:
		c.emit(OpPush, int64(math.Float64bits(x.Value)), 0)
		return nil
	case *ast.PidExpr:
		c.emit(OpPushPid, 0, 0)
		return nil
	case *ast.NprocsExpr:
		c.emit(OpPushNP, 0, 0)
		return nil

	case *ast.Ident:
		sym := c.info.Uses[x]
		if sym == nil {
			return c.errorf(x.P, "unresolved %q", x.Name)
		}
		switch sym.Kind {
		case types.LocalVar, types.ParamVar:
			if sym.Type.Kind == types.Array {
				// Array-valued local: its slot holds the private base
				// address (set by OpLocalArr).
				c.emit(OpLoadLocal, int64(sym.Slot), 0)
				return nil
			}
			c.emit(OpLoadLocal, int64(sym.Slot), 0)
			return nil
		case types.GlobalVar:
			if sym.Type.Kind == types.Array {
				return c.addr(x) // base address as value (index bases)
			}
			if err := c.addr(x); err != nil {
				return err
			}
			c.emit(c.loadOp(sym.Type), 0, 0)
			return nil
		}
		return c.errorf(x.P, "cannot evaluate %q", x.Name)

	case *ast.UnaryExpr:
		if err := c.expr(x.X); err != nil {
			return err
		}
		t := c.info.TypeOf(x.X)
		switch x.Op {
		case token.MINUS:
			if t.Kind == types.Double {
				c.emit(OpNegF, 0, 0)
			} else {
				c.emit(OpNegI, 0, 0)
			}
		case token.NOT:
			c.emit(OpNot, 0, 0)
		}
		return nil

	case *ast.DerefExpr:
		if err := c.expr(x.X); err != nil {
			return err
		}
		t := c.info.TypeOf(e)
		c.emit(c.loadOp(t), 0, 0)
		return nil

	case *ast.BinaryExpr:
		return c.binary(x)

	case *ast.IndexExpr, *ast.FieldExpr:
		if err := c.addr(e); err != nil {
			return err
		}
		t := c.info.TypeOf(e)
		if t.Kind == types.Array {
			return nil // row base address
		}
		c.emit(c.loadOp(t), 0, 0)
		return nil

	case *ast.CallExpr:
		fi := c.info.Funcs[x.Name]
		if fi == nil {
			return c.errorf(x.P, "unknown function %q", x.Name)
		}
		for i, arg := range x.Args {
			var want *types.Type
			if i < len(fi.Params) {
				want = fi.Params[i].Type
			}
			if err := c.exprAs(arg, want); err != nil {
				return err
			}
		}
		c.emit(OpCall, int64(c.prog.FuncID[x.Name]), 0)
		return nil

	case *ast.AllocExpr:
		return c.alloc(x, 0)
	}
	return c.errorf(e.Pos(), "unhandled expression")
}

// alloc compiles an allocation; padTo > 0 pads the element stride.
func (c *compiler) alloc(x *ast.AllocExpr, padTo int64) error {
	t := c.resolveAllocType(x.Type)
	if t == nil {
		return c.errorf(x.P, "cannot resolve allocation type %s", x.Type)
	}
	size, err := c.lay.SizeOf(t)
	if err != nil {
		return err
	}
	stride := size
	if padTo > 0 {
		stride = layout.RoundUp(stride, padTo)
	}
	onStack := int64(0)
	if x.Count != nil {
		if err := c.expr(x.Count); err != nil {
			return err
		}
		onStack = 1
	}
	op := OpAllocHeap
	if x.PerProc {
		op = OpAllocArena
	}
	// B packs the count-on-stack flag with the required alignment
	// (padded heap blocks must start on the padding boundary).
	c.emit(op, stride, onStack|padTo<<1)
	return nil
}

// resolveAllocType maps a syntactic allocation type to semantics.
func (c *compiler) resolveAllocType(t *ast.TypeExpr) *types.Type {
	var base *types.Type
	if t.Struct {
		si := c.info.Structs[t.Name]
		if si == nil {
			return nil
		}
		base = &types.Type{Kind: types.StructK, Struct: si}
	} else {
		switch t.Name {
		case "int":
			base = types.IntType
		case "double":
			base = types.DoubleType
		default:
			return nil
		}
	}
	for i := 0; i < t.Stars; i++ {
		base = types.PointerTo(base)
	}
	return base
}

func (c *compiler) binary(x *ast.BinaryExpr) error {
	// Short-circuit logical operators.
	if x.Op == token.LAND || x.Op == token.LOR {
		if err := c.expr(x.X); err != nil {
			return err
		}
		if x.Op == token.LAND {
			// X && Y: if X is zero, result 0 without evaluating Y.
			jz := c.emit(OpJz, 0, 0)
			if err := c.expr(x.Y); err != nil {
				return err
			}
			c.emit(OpPush, 0, 0)
			c.emit(OpNeI, 0, 0)
			jend := c.emit(OpJmp, 0, 0)
			c.code[jz].A = int64(len(c.code))
			c.emit(OpPush, 0, 0)
			c.code[jend].A = int64(len(c.code))
			return nil
		}
		// X || Y
		jz := c.emit(OpJz, 0, 0)
		c.emit(OpPush, 1, 0)
		jend := c.emit(OpJmp, 0, 0)
		c.code[jz].A = int64(len(c.code))
		if err := c.expr(x.Y); err != nil {
			return err
		}
		c.emit(OpPush, 0, 0)
		c.emit(OpNeI, 0, 0)
		c.code[jend].A = int64(len(c.code))
		return nil
	}

	lt := c.info.TypeOf(x.X)
	rt := c.info.TypeOf(x.Y)
	double := (lt != nil && lt.Kind == types.Double) || (rt != nil && rt.Kind == types.Double)

	if err := c.expr(x.X); err != nil {
		return err
	}
	if double && lt != nil && lt.Kind == types.Int {
		c.emit(OpI2F, 0, 0)
	}
	if err := c.expr(x.Y); err != nil {
		return err
	}
	if double && rt != nil && rt.Kind == types.Int {
		c.emit(OpI2F, 0, 0)
	}

	type pair struct{ i, f Op }
	ops := map[token.Kind]pair{
		token.PLUS:  {OpAddI, OpAddF},
		token.MINUS: {OpSubI, OpSubF},
		token.STAR:  {OpMulI, OpMulF},
		token.SLASH: {OpDivI, OpDivF},
		token.EQ:    {OpEqI, OpEqF},
		token.NEQ:   {OpNeI, OpNeF},
		token.LT:    {OpLtI, OpLtF},
		token.LE:    {OpLeI, OpLeF},
		token.GT:    {OpGtI, OpGtF},
		token.GE:    {OpGeI, OpGeF},
	}
	if x.Op == token.PERCENT {
		c.emit(OpModI, 0, 0)
		return nil
	}
	p, ok := ops[x.Op]
	if !ok {
		return c.errorf(x.P, "unhandled operator %s", x.Op)
	}
	if double {
		c.emit(p.f, 0, 0)
	} else {
		c.emit(p.i, 0, 0)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Addresses

// addr compiles the address of a designator onto the stack.
func (c *compiler) addr(e ast.Expr) error {
	c.at(e.Pos())
	switch x := e.(type) {
	case *ast.Ident:
		sym := c.info.Uses[x]
		if sym == nil {
			return c.errorf(x.P, "unresolved %q", x.Name)
		}
		switch {
		case sym.Kind == types.GlobalVar && sym.IsShared():
			vl := c.lay.Var(sym.Name)
			if vl == nil {
				return c.errorf(x.P, "no layout for %q", sym.Name)
			}
			c.emit(OpPush, vl.Base, 0)
			return nil
		case sym.Kind == types.GlobalVar: // private global
			off, ok := c.privAddr[sym.Name]
			if !ok {
				return c.errorf(x.P, "no private layout for %q", sym.Name)
			}
			c.emit(OpPush, off|PrivTag, 0)
			return nil
		case sym.Type.Kind == types.Array:
			// Local array: slot holds the tagged base.
			c.emit(OpLoadLocal, int64(sym.Slot), 0)
			return nil
		}
		return c.errorf(x.P, "cannot take address of %q", x.Name)

	case *ast.IndexExpr:
		bt := c.info.TypeOf(x.X)
		if bt == nil {
			return c.errorf(x.P, "untyped index base")
		}
		switch bt.Kind {
		case types.Array:
			if err := c.indexedArray(x); err != nil {
				return err
			}
			return nil
		case types.Pointer:
			if err := c.expr(x.X); err != nil {
				return err
			}
			if err := c.expr(x.Index); err != nil {
				return err
			}
			es, err := c.lay.SizeOf(bt.Elem)
			if err != nil {
				return err
			}
			c.emit(OpIndexPtr, es, 0)
			return nil
		}
		return c.errorf(x.P, "cannot index %s", bt)

	case *ast.FieldExpr:
		f := c.info.FieldUses[x]
		if f == nil {
			return c.errorf(x.P, "unresolved field %q", x.Name)
		}
		sl := c.lay.Struct(f.Parent.Name)
		if sl == nil {
			return c.errorf(x.P, "no layout for struct %q", f.Parent.Name)
		}
		off := sl.Offsets[f.Index]
		if x.Arrow {
			if err := c.expr(x.X); err != nil {
				return err
			}
		} else {
			if err := c.addr(x.X); err != nil {
				return err
			}
		}
		if off != 0 {
			c.emit(OpPush, off, 0)
			c.emit(OpAddI, 0, 0)
		}
		return nil

	case *ast.DerefExpr:
		return c.expr(x.X)
	}
	return c.errorf(e.Pos(), "expression is not addressable")
}

// indexedArray compiles the address of a (possibly multi-dimensional)
// array subscript using the layout's strides.
func (c *compiler) indexedArray(x *ast.IndexExpr) error {
	// Collect the chain to find the root.
	var indices []ast.Expr
	base := ast.Expr(x)
	for {
		ix, ok := base.(*ast.IndexExpr)
		if !ok {
			break
		}
		if bt := c.info.TypeOf(ix.X); bt != nil && bt.Kind == types.Pointer {
			break // handled by pointer path at this level
		}
		indices = append([]ast.Expr{ix.Index}, indices...)
		base = ix.X
	}

	// The root must be addressable: a global array, a local array, or
	// a field/pointer-indexed struct array.
	strides, dims, err := c.stridesFor(base, len(indices))
	if err != nil {
		return err
	}
	if err := c.addr(base); err != nil {
		return err
	}
	for k, idx := range indices {
		if err := c.expr(idx); err != nil {
			return err
		}
		if dims != nil && k < len(dims) && dims[k] > 0 {
			c.emit(OpCheck, dims[k], 0)
		}
		c.emit(OpPush, strides[k], 0)
		c.emit(OpMulI, 0, 0)
		c.emit(OpAddI, 0, 0)
	}
	return nil
}

// stridesFor computes byte strides for an index chain rooted at base.
func (c *compiler) stridesFor(base ast.Expr, n int) ([]int64, []int64, error) {
	// Global arrays use the padded layout strides.
	if id, ok := base.(*ast.Ident); ok {
		sym := c.info.Uses[id]
		if sym != nil && sym.Kind == types.GlobalVar && sym.IsShared() {
			vl := c.lay.Var(sym.Name)
			if vl == nil {
				return nil, nil, c.errorf(id.P, "no layout for %q", sym.Name)
			}
			if len(vl.Strides) < n {
				return nil, nil, c.errorf(id.P, "rank mismatch on %q", sym.Name)
			}
			return vl.Strides[:n], vl.Dims[:n], nil
		}
	}
	// Other bases (private/local arrays, array fields): natural
	// (unpadded) strides from the type.
	t := c.info.TypeOf(base)
	if t == nil {
		return nil, nil, c.errorf(base.Pos(), "untyped array base")
	}
	var strides, dims []int64
	cur := t
	for i := 0; i < n; i++ {
		if cur.Kind != types.Array {
			return nil, nil, c.errorf(base.Pos(), "rank mismatch")
		}
		rest, err := c.lay.SizeOf(cur.Elem)
		if err != nil {
			return nil, nil, err
		}
		d, ok := types.EvalConst(cur.Len, int64(c.nprocs))
		if !ok {
			d = 0
		}
		strides = append(strides, rest)
		dims = append(dims, d)
		cur = cur.Elem
	}
	return strides, dims, nil
}
