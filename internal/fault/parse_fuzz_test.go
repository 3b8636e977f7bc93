package fault

import "testing"

// FuzzParse feeds arbitrary specs to Parse, which must never panic.
// Whatever it accepts must survive a trip through Spec: the canonical
// spec parses back to a scenario with the same spec and the same Key.
// The seed corpus is testdata/fuzz/FuzzParse; run
//
//	go test -run=NONE -fuzz=FuzzParse -fuzztime=30s ./internal/fault
//
// to search beyond it.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		canon := s.Spec()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse rejects the Spec of an accepted scenario: %v\nspec %q\ncanonical %q", err, spec, canon)
		}
		if got := again.Spec(); got != canon {
			t.Fatalf("Spec→Parse→Spec is not identical:\n%q\n%q", canon, got)
		}
		if again.Key() != s.Key() {
			t.Fatalf("Key changed across Spec→Parse: %#x vs %#x for %q", s.Key(), again.Key(), canon)
		}
	})
}
