// Tests live in verify_test because constructing Sides goes through
// core.Restructure, and core imports verify.
package verify_test

import (
	"strconv"
	"strings"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/transform"
	"falseshare/internal/verify"
)

func side(p *core.Program) verify.Side {
	return verify.Side{File: p.File, Info: p.Info, Layout: p.Layout}
}

func restructure(t *testing.T, src string, nprocs int) *core.Result {
	t.Helper()
	res, err := core.Restructure(src, core.Options{
		Nprocs:     nprocs,
		BlockSize:  64,
		Heuristics: transform.Config{FreqThreshold: 2},
	})
	if err != nil {
		t.Fatalf("Restructure: %v", err)
	}
	return res
}

// parseOnly builds a Side for a program without transforming it, so
// tests can hand-craft "transformed" sides that genuinely diverge.
func parseOnly(t *testing.T, src string, nprocs int) verify.Side {
	t.Helper()
	prog, err := core.Compile(src, core.Options{Nprocs: nprocs, BlockSize: 64})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return side(prog)
}

// TestVerifyShapes runs the oracle over one program per remapping
// shape and checks it accepts the (correct) transformation while
// actually comparing cells through the remap.
func TestVerifyShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want transform.GTShape
	}{
		{"group", `
shared int cell[16];
shared int hits[16];
void main() {
    for (int i = 0; i < 1000; i = i + 1) {
        cell[pid] = cell[pid] + 1;
        hits[pid] = hits[pid] + 2;
    }
}
`, transform.ShapeGroup},
		{"transpose", `
shared double w[50][8];
void main() {
    for (int i = 0; i < 50; i = i + 1) {
        w[i][pid] = w[i][pid] + 1.0;
    }
}
`, transform.ShapeTranspose},
		{"cyclic", `
shared int a[64];
void main() {
    for (int r = 0; r < 100; r = r + 1) {
        for (int i = pid; i < 64; i = i + nprocs) {
            a[i] = a[i] + 1;
        }
    }
}
`, transform.ShapeCyclic},
		{"block", `
shared int a[96];
void main() {
    int chunk;
    int lo;
    chunk = 96 / nprocs;
    lo = pid * chunk;
    for (int r = 0; r < 100; r = r + 1) {
        for (int i = lo; i < lo + chunk; i = i + 1) {
            a[i] = a[i] + 1;
        }
    }
}
`, transform.ShapeBlock},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := restructure(t, tc.src, 8)
			gt := res.Plan.ByKind(transform.KindGroupTranspose)
			if len(gt) != 1 || gt[0].Shape != tc.want {
				t.Fatalf("plan did not produce shape %v:\n%s", tc.want, res.Plan)
			}
			rep, err := verify.Run(side(res.Original), side(res.Transformed), res.Applied, verify.Options{})
			if err != nil {
				t.Fatalf("verify.Run: %v", err)
			}
			if rep.Skipped || !rep.OK {
				t.Fatalf("verdict not OK:\n%s", rep)
			}
			cells := 0
			for _, v := range rep.Objects {
				cells += v.Cells
			}
			if cells == 0 {
				t.Fatalf("no cells compared:\n%s", rep)
			}
		})
	}
}

// TestVerifyIndirection checks the oracle follows heap pointers and
// the extra indirection the transformation introduces, skipping
// pointer-valued cells rather than comparing raw addresses.
func TestVerifyIndirection(t *testing.T) {
	src := `
struct Node {
    int count;
    struct Node *next;
};
shared struct Node *heads[16];
void main() {
    struct Node *n;
    n = alloc(struct Node);
    n->next = 0;
    heads[pid] = n;
    barrier;
    for (int i = 0; i < 1000; i = i + 1) {
        struct Node *p;
        p = heads[pid];
        while (p != 0) {
            p->count = p->count + 1;
            p = p->next;
        }
    }
}
`
	res := restructure(t, src, 8)
	if len(res.Plan.ByKind(transform.KindIndirection)) != 1 {
		t.Fatalf("expected indirection:\n%s", res.Plan)
	}
	rep, err := verify.Run(side(res.Original), side(res.Transformed), res.Applied, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if rep.Skipped || !rep.OK {
		t.Fatalf("verdict not OK:\n%s", rep)
	}
	var cells, skipped int
	for _, v := range rep.Objects {
		cells += v.Cells
		skipped += v.Skipped
	}
	if cells == 0 {
		t.Fatalf("no heap cells compared:\n%s", rep)
	}
	if skipped == 0 {
		t.Fatalf("pointer cells (next) should be skipped, not compared:\n%s", rep)
	}
}

// TestVerifyDetectsDivergence feeds the oracle two programs that
// really compute different values; with no decisions applied the
// identity remap must expose the difference.
func TestVerifyDetectsDivergence(t *testing.T) {
	const template = `
shared int out[8];
void main() {
    out[pid] = VALUE;
}
`
	orig := parseOnly(t, strings.Replace(template, "VALUE", "1", 1), 8)
	trans := parseOnly(t, strings.Replace(template, "VALUE", "2", 1), 8)
	rep, err := verify.Run(orig, trans, nil, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if rep.OK || rep.Skipped {
		t.Fatalf("divergence not detected:\n%s", rep)
	}
	fail := rep.Failing()
	if len(fail) != 1 || fail[0].Object != "out" {
		t.Fatalf("wrong failing object: %+v", fail)
	}
	if fail[0].First == nil || !strings.HasPrefix(fail[0].First.Cell, "out[") {
		t.Fatalf("missing divergence cell: %+v", fail[0])
	}
}

// TestVerifyTolerance: double cells compare with a relative
// tolerance (lock order can reassociate FP reductions), so a tiny
// relative difference passes and a gross one fails.
func TestVerifyTolerance(t *testing.T) {
	const template = `
shared double x;
void main() {
    if (pid == 0) {
        x = VALUE;
    }
}
`
	orig := parseOnly(t, strings.Replace(template, "VALUE", "1000000.0", 1), 2)

	near := parseOnly(t, strings.Replace(template, "VALUE", "1000000.0000001", 1), 2)
	rep, err := verify.Run(orig, near, nil, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if !rep.OK {
		t.Fatalf("within-tolerance difference rejected:\n%s", rep)
	}

	far := parseOnly(t, strings.Replace(template, "VALUE", "1000100.0", 1), 2)
	rep, err = verify.Run(orig, far, nil, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if rep.OK {
		t.Fatalf("out-of-tolerance difference accepted:\n%s", rep)
	}
}

// TestVerifyStepBudget: an original-side run that exhausts the step
// budget makes the report inconclusive (Skipped), not a failure —
// a slow program is not the transformation's fault.
func TestVerifyStepBudget(t *testing.T) {
	src := `
shared int n;
void main() {
    for (int i = 0; i < 100000; i = i + 1) {
        n = n + 1;
    }
}
`
	s := parseOnly(t, src, 2)
	rep, err := verify.Run(s, s, nil, verify.Options{StepBudget: 100})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if !rep.Skipped {
		t.Fatalf("expected inconclusive report:\n%s", rep)
	}
	if !strings.Contains(rep.SkipReason, "budget") {
		t.Fatalf("skip reason %q does not mention the budget", rep.SkipReason)
	}
	if rep.OK {
		t.Fatalf("skipped report must not claim OK:\n%s", rep)
	}
}

// withEnd builds a hand-crafted side from template, with END replaced
// by the first address past that program's shared space minus back.
// The placeholder does not move the layout, so the address computed
// from the first build holds for the second.
func withEnd(t *testing.T, template string, nprocs int, back int64) verify.Side {
	t.Helper()
	end := parseOnly(t, strings.Replace(template, "END", "0", 1), nprocs).Layout.End
	s := parseOnly(t, strings.Replace(template, "END", strconv.FormatInt(end-back, 10), 1), nprocs)
	if s.Layout.End != end {
		t.Fatalf("layout moved with the placeholder: %#x vs %#x", s.Layout.End, end)
	}
	return s
}

// TestVerifyPtrCellNearEnd: a transformed-side pointer cell holding
// an address 4 bytes short of the end of shared space points at a
// struct that does not fit. The oracle skips the cell, as it skips
// any pointer it cannot bound-check, instead of faulting on the
// struct's second field.
func TestVerifyPtrCellNearEnd(t *testing.T) {
	orig := parseOnly(t, `
struct S { int a; int b; };
shared struct S *p[2];
void main() {
    if (pid == 0) {
        p[0] = alloc(struct S);
    }
}
`, 2)
	// The "transformed" p is a plain int array whose first two words
	// alias p[0]'s pointer word.
	trans := withEnd(t, `
struct S { int a; int b; };
shared int p[4];
void main() {
    if (pid == 0) {
        p[0] = END;
    }
}
`, 2, 4)
	rep, err := verify.Run(orig, trans, nil, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	if rep.Skipped || rep.TransErr != "" {
		t.Fatalf("run not conclusive:\n%s", rep)
	}
	if len(rep.Objects) != 1 || rep.Objects[0].Object != "p" {
		t.Fatalf("objects: %+v", rep.Objects)
	}
	if v := rep.Objects[0]; !v.OK || v.Skipped != 2 || v.Cells != 0 {
		t.Fatalf("out-of-range pointer cell should be skipped, not compared:\n%s", rep)
	}
}

// TestVerifyIndirectionOutOfRange: an indirected field whose
// transformed-side pointer lies past the end of shared space is a
// divergence naming the bad pointer, not a fault.
func TestVerifyIndirectionOutOfRange(t *testing.T) {
	orig := parseOnly(t, `
struct S { int a; int b; };
shared struct S *h;
void main() {
    if (pid == 0) {
        h = alloc(struct S);
        h->a = 5;
    }
}
`, 2)
	// Field a is declared indirected, so its 8-byte pointer word on
	// the transformed side spans a and b: a holds the address, b 0.
	trans := withEnd(t, `
struct S { int a; int b; };
shared struct S *h;
void main() {
    if (pid == 0) {
        h = alloc(struct S);
        h->a = END;
    }
}
`, 2, 0)
	applied := []*transform.Decision{{Kind: transform.KindIndirection, Struct: "S", Fields: []string{"a"}}}
	rep, err := verify.Run(orig, trans, applied, verify.Options{})
	if err != nil {
		t.Fatalf("verify.Run: %v", err)
	}
	fail := rep.Failing()
	if rep.OK || len(fail) != 1 || fail[0].Object != "h" {
		t.Fatalf("bad indirection not reported:\n%s", rep)
	}
	d := fail[0].First
	if d == nil || d.Cell != "h[0].a" || !strings.Contains(d.Trans, "out of range") {
		t.Fatalf("divergence %+v does not name the bad indirection", d)
	}
}
