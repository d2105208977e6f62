package dsl

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDSL drives the .tga parser and printer with arbitrary sources. For
// every source Parse accepts, the printed form must parse again and print
// identically (Print is a fixpoint after one round), and nothing may
// panic. The corpus is seeded with the shipped model files; regression
// inputs live under testdata/fuzz/FuzzDSL.
func FuzzDSL(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "modelfiles", "*.tga"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped model files to seed the corpus: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(beeperSrc)
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(file.Sys, file.Ranges)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n%s", err, printed)
		}
		if reprinted := Print(again.Sys, again.Ranges); reprinted != printed {
			t.Fatalf("printing is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", printed, reprinted)
		}
	})
}
