package p4c

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/programs"
	"repro/internal/randprog"
)

// FuzzParseFormat checks that the mini-language front end is a fixpoint
// under pretty-printing: any source that parses must format to text that
// parses again and formats identically (Parse∘Format is idempotent), and
// neither phase may panic on arbitrary input.
//
// It also checks that Build and lint agree: a source that Parse rejects but
// ParseUnvalidated accepts must get at least one verify error from the
// analysis suite, and a source that Parse accepts must get none. (The ifc
// pass's policy errors are about the policy, not the program, and are not
// part of the comparison.)
//
// The corpus is seeded from the example and zoo programs, from formatted
// random IR programs, so mutations start near the interesting grammar, and
// from one program per validity rule that lint once enforced and Build did
// not.
func FuzzParseFormat(f *testing.F) {
	paths, err := filepath.Glob("../../examples/programs/*.p4w")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, m := range programs.All() {
		f.Add(m.Build().Format())
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randprog.Deterministic(rng, randprog.Options{WithTables: true})
		f.Add(prog.Format())
	}
	f.Add("") // degenerate inputs must error, not panic
	f.Add("system x {\n}\n")
	for _, src := range invalidSeeds {
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		lenient, lerr := ParseUnvalidated(src)
		prog, err := Parse(src)
		if lerr != nil {
			if err == nil {
				t.Fatalf("Parse accepts a source ParseUnvalidated rejects: %v", lerr)
			}
			return // rejecting malformed input is fine; panicking is not
		}
		r := analysis.Analyze(lenient)
		verifyErrs := 0
		for _, d := range r.Diags {
			if d.Pass == "verify" && d.Severity == analysis.SevError {
				verifyErrs++
			}
		}
		if err != nil {
			if verifyErrs == 0 {
				t.Fatalf("Parse rejects the source (%v) but lint reports no error:\n%s", err, r)
			}
			return
		}
		if verifyErrs != 0 {
			t.Fatalf("Parse accepts the source but lint reports %d error(s):\n%s", verifyErrs, r)
		}
		text := prog.Format()
		prog2, err := Parse(text)
		if err != nil {
			t.Fatalf("formatted output does not re-parse: %v\n--- formatted ---\n%s", err, text)
		}
		if text2 := prog2.Format(); text2 != text {
			t.Fatalf("Format is not a fixpoint\n--- first ---\n%s\n--- second ---\n%s", text, text2)
		}
	})
}

// invalidSeeds are programs that break one validity rule each.
var invalidSeeds = []string{
	`program "recursive" {
  table t(pkt.dst_port) { entry(80) -> apply_table t; default -> forward(1); }
  apply { apply_table t; }
}`,
	`program "empty-range" {
  table t(pkt.dst_port) { entry(90..80) -> drop(); default -> forward(1); }
  apply { apply_table t; }
}`,
	`program "const-index-write" {
  register_array a[4] : 32;
  apply { a[9] = 1; forward(1); }
}`,
	`program "const-index-read" {
  register_array a[4] : 32;
  apply { meta.v = a[9]; forward(meta.v); }
}`,
	`program "dup-array" {
  register_array a[4] : 32;
  register_array a[8] : 32;
  apply { a[5] = 1; forward(1); }
}`,
	`program "dup-table" {
  table t(pkt.dst_port) { default -> drop(); }
  table t(pkt.proto) { default -> forward(1); }
  apply { apply_table t; }
}`,
	`program "dup-sketch" {
  sketch s[2x64];
  sketch s[3x64];
  apply { forward(1); }
}`,
}
