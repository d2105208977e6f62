package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"tigatest/internal/game"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// The cold-synthesize pool: serve-mixed's writes are synthesize requests
// on purposes the daemon has not seen in this run, so every one is a cache
// miss plus a real solve, compile and insert. They are drawn from a fixed
// pool of smartlight reachability purposes — conjunctions of a location of
// each process and bounds on each clock — because that space holds a
// quarter of a million distinct natural purposes while a cached smartlight
// strategy stays small. (LEP n=3 strategies keep roughly a megabyte each
// in the daemon's unbounded cache, so a run's thousands of cold LEP
// purposes would grow it by gigabytes.) The pool is a fixed stride
// through that enumeration, so it mixes every dimension; the run's seed
// only permutes the order of requests.
const (
	poolModel  = "smartlight"
	poolSize   = 100000
	poolStride = 7919 // prime and coprime to the enumeration size
)

// Expected outcome letters of a pool purpose under the daemon's "auto"
// mode (strict game first, cooperative fallback).
const (
	expectStrict = 'S' // winnable in the strict game
	expectCoop   = 'C' // winnable only cooperatively
	expectNone   = 'U' // unwinnable
)

//go:embed testdata/cold_pool.txt
var coldPoolFile string

// poolAtoms are the per-dimension choices of a pool purpose: the IUT and
// User locations, and an interval on each clock with constants within the
// model's own, so every purpose shares one extrapolation signature and
// hence one explored skeleton. The empty string leaves the dimension
// unconstrained.
func poolAtoms() [][]string {
	iut := []string{""}
	for _, l := range []string{"Off", "Dim", "Bright", "L1", "L2", "L3", "L4", "L5", "L6"} {
		iut = append(iut, "IUT."+l)
	}
	clock := func(name string, maxK int) []string {
		c := []string{""}
		for a := 0; a <= maxK; a++ {
			c = append(c, fmt.Sprintf("%s <= %d", name, a), fmt.Sprintf("%s >= %d", name, a))
			for b := a + 1; b <= maxK; b++ {
				c = append(c, fmt.Sprintf("%s >= %d and %s <= %d", name, a, name, b))
			}
		}
		return c
	}
	return [][]string{
		iut,
		{"", "User.Init", "User.Work"},
		clock("x", models.Tidle),
		clock("Tp", models.Tpulse),
		clock("z", models.Treact),
	}
}

// coldPool returns the pool's purposes in pool order.
func coldPool() []string {
	choices := poolAtoms()
	total := 1
	for _, c := range choices {
		total *= len(c)
	}
	pool := make([]string, 0, poolSize)
	for i := 0; len(pool) < poolSize; i++ {
		idx := (i * poolStride) % total
		var atoms []string
		for _, c := range choices {
			if a := c[idx%len(c)]; a != "" {
				atoms = append(atoms, a)
			}
			idx /= len(c)
		}
		if len(atoms) == 0 {
			continue
		}
		pool = append(pool, "control: A<> "+strings.Join(atoms, " and "))
	}
	return pool
}

func poolDigest(pool []string) string {
	sum := sha256.Sum256([]byte(strings.Join(pool, "\n")))
	return hex.EncodeToString(sum[:])
}

// loadExpectations reads the recorded outcome of every pool purpose and
// checks it was recorded for this exact pool.
func loadExpectations(pool []string) (string, error) {
	sc := bufio.NewScanner(strings.NewReader(coldPoolFile))
	var header string
	var letters strings.Builder
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			header = line
		default:
			letters.WriteString(line)
		}
	}
	want := fmt.Sprintf("# %s pool size=%d sha256=%s", poolModel, len(pool), poolDigest(pool))
	if header != want {
		return "", fmt.Errorf("cold pool expectations were recorded for %q, the pool is %q; re-record with --record-pool", header, want)
	}
	if letters.Len() != len(pool) {
		return "", fmt.Errorf("cold pool expectations hold %d outcomes for %d purposes", letters.Len(), len(pool))
	}
	return letters.String(), nil
}

// recordPool solves every pool purpose in process, the way the daemon's
// auto mode does, and writes the expectations file.
func recordPool(w io.Writer) error {
	sys, env, _, _, err := models.ByName(poolModel, 0)
	if err != nil {
		return err
	}
	batch, err := game.NewBatch(sys, game.Options{PropagationWorkers: 1})
	if err != nil {
		return err
	}
	pool := coldPool()
	fmt.Fprintf(w, "# %s pool size=%d sha256=%s\n", poolModel, len(pool), poolDigest(pool))
	var line []byte
	for _, p := range pool {
		f, err := tctl.Parse(env, p)
		if err != nil {
			return fmt.Errorf("pool purpose %q: %w", p, err)
		}
		letter := byte(expectNone)
		for _, coop := range []bool{false, true} {
			res, err := batch.Solve(f, coop)
			if err != nil {
				return fmt.Errorf("pool purpose %q: %w", p, err)
			}
			if res.Winnable {
				letter = expectStrict
				if coop {
					letter = expectCoop
				}
				break
			}
		}
		line = append(line, letter)
		if len(line) == 100 {
			fmt.Fprintf(w, "%s\n", line)
			line = line[:0]
		}
	}
	if len(line) > 0 {
		fmt.Fprintf(w, "%s\n", line)
	}
	return nil
}
