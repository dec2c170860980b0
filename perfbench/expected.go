package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// expectedFS holds the seed commit's outputs, one JSON file per
// workload, regenerated with --write-expected.
//
//go:embed expected
var expectedFS embed.FS

// loadExpected decodes expected/<name>.json into v; a missing file
// leaves v empty (only --write-expected runs without one).
func loadExpected(name string, v any) error {
	b, err := expectedFS.ReadFile("expected/" + name + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("expected/%s.json: %w", name, err)
	}
	return nil
}

// writeExpectedFor computes a workload's expected outputs through the
// program's own entry points and writes them to dir/<name>.json.
func writeExpectedFor(name string, b bench, dir string) error {
	if err := b.Setup(); err != nil {
		return err
	}
	defer b.Close()
	var v any
	var err error
	switch x := b.(type) {
	case *figureBench:
		v, err = x.expectFigure()
	case *fsdMix:
		v, err = x.expectFSD()
	}
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(out, '\n'), 0o644)
}
