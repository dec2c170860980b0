package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	Install(nil)
	sp := Begin("anything")
	if sp != nil {
		t.Fatalf("Begin with no recorder = %v, want nil", sp)
	}
	// All of these must not panic.
	sp.Count("x", 1)
	sp.Set("y", 2)
	if got := sp.Counter("x"); got != 0 {
		t.Fatalf("nil span Counter = %d", got)
	}
	if sp.Find("z") != nil {
		t.Fatal("nil span Find != nil")
	}
	sp.End()
}

func TestSpanNestingAndCounters(t *testing.T) {
	rec := NewRecorder()
	Install(rec)
	defer Install(nil)

	outer := Begin("outer")
	inner := Begin("inner")
	inner.Count("items", 3)
	inner.Count("items", 2)
	inner.Set("limit", 10)
	inner.End()
	sib := Begin("sibling")
	sib.End()
	outer.End()

	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Name != "outer" {
		t.Fatalf("top-level spans = %+v, want one 'outer'", spans)
	}
	kids := spans[0].Children
	if len(kids) != 2 || kids[0].Name != "inner" || kids[1].Name != "sibling" {
		t.Fatalf("children = %+v, want [inner sibling]", kids)
	}
	if got := kids[0].Counters["items"]; got != 5 {
		t.Errorf("items counter = %d, want 5", got)
	}
	if got := kids[0].Counters["limit"]; got != 10 {
		t.Errorf("limit counter = %d, want 10", got)
	}
	if spans[0].Wall <= 0 {
		t.Errorf("outer wall = %v, want > 0", spans[0].Wall)
	}
	if f := spans[0].Find("inner"); f == nil || f.Counter("items") != 5 {
		t.Errorf("Find(inner) = %+v", f)
	}
}

func TestEndClosesOpenChildren(t *testing.T) {
	rec := NewRecorder()
	outer := rec.Begin("outer")
	rec.Begin("leaked") // never explicitly ended
	outer.End()

	// After outer ends, new spans must attach at top level again.
	next := rec.Begin("next")
	next.End()

	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "outer" || spans[1].Name != "next" {
		t.Fatalf("spans = %+v, want [outer next]", spans)
	}
	if len(spans[0].Children) != 1 || spans[0].Children[0].Name != "leaked" {
		t.Fatalf("outer children = %+v, want [leaked]", spans[0].Children)
	}
	if spans[0].Children[0].Wall <= 0 {
		t.Error("leaked child has no wall time after forced close")
	}
}

func TestVerboseLogging(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder()
	rec.Verbose = true
	rec.LogW = &buf
	sp := rec.Begin("stage")
	sp.Count("pdvs", 4)
	sp.End()
	rec.Logf("done %d", 7)
	out := buf.String()
	for _, want := range []string{"stage", "pdvs=4", "done 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("verbose log missing %q:\n%s", want, out)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rec := NewRecorder()
	sp := rec.Begin("restructure")
	st := rec.Begin("pdv")
	st.Set("pdvs", 2)
	st.End()
	sp.End()

	rep := rec.Report("fsc")
	rep.Config = map[string]any{"nprocs": 12}
	rep.AddData("applied", 3)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Tool != "fsc" || len(back.Spans) != 1 {
		t.Fatalf("round-tripped report = %+v", back)
	}
	pdv := back.Spans[0].Find("pdv")
	if pdv == nil || pdv.Counters["pdvs"] != 2 {
		t.Fatalf("pdv span lost in round trip: %+v", back.Spans[0])
	}
	if back.Spans[0].Wall < 0 {
		t.Errorf("negative wall time")
	}
}

func TestReportCSV(t *testing.T) {
	rec := NewRecorder()
	sp := rec.Begin("a")
	st := rec.Begin("b")
	st.Set("n", 9)
	st.End()
	sp.End()
	var buf bytes.Buffer
	if err := rec.Report("t").WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "span,wall_ns,counter,value") {
		t.Errorf("missing CSV header:\n%s", out)
	}
	if !strings.Contains(out, "a/b,,n,9") {
		t.Errorf("missing counter row for a/b:\n%s", out)
	}
}

func TestSnapshotOfOpenSpans(t *testing.T) {
	rec := NewRecorder()
	rec.Begin("open")
	time.Sleep(time.Millisecond)
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Wall <= 0 {
		t.Fatalf("open span snapshot = %+v, want positive wall", spans)
	}
}

// TestSpanSnapshot: a span's snapshot is a deep, detached copy of its
// subtree — later changes to either side do not reach the other.
func TestSpanSnapshot(t *testing.T) {
	var nilSpan *Span
	if nilSpan.Snapshot() != nil {
		t.Fatal("nil span snapshot must be nil")
	}
	rec := NewRecorder()
	sp := rec.Begin("measure")
	sp.Set("blocks", 1)
	child := rec.Begin("vm.run")
	child.Set("instrs", 7)
	child.End()
	sp.End()
	c := sp.Snapshot()
	if c.Name != "measure" || c.Counter("blocks") != 1 || len(c.Children) != 1 || c.Children[0].Counter("instrs") != 7 {
		t.Fatalf("snapshot = %+v", c)
	}
	c.Set("blocks", 2)
	c.Children[0].Set("instrs", 8)
	sp.Set("extra", 1)
	if sp.Counter("blocks") != 1 || child.Counter("instrs") != 7 || c.Counter("extra") != 0 {
		t.Error("snapshot shares state with the recorded span")
	}
}

func TestConcurrentCounting(t *testing.T) {
	rec := NewRecorder()
	sp := rec.Begin("par")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				sp.Count("n", 1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	sp.End()
	if got := sp.Counter("n"); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestRecorderFind(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Find("x") != nil {
		t.Error("nil recorder Find != nil")
	}
	rec := NewRecorder()
	Install(rec)
	defer Install(nil)
	outer := Begin("outer")
	inner := Begin("inner")
	inner.Count("items", 5)
	inner.End()
	outer.End()
	top := Begin("request")
	defer top.End()

	if f := rec.Find("inner"); f == nil || f.Counter("items") != 5 {
		t.Errorf("Find(inner) = %+v", f)
	}
	if f := rec.Find("request"); f == nil {
		t.Error("Find missed an open top-level span")
	}
	if rec.Find("absent") != nil {
		t.Error("Find invented a span")
	}
}
