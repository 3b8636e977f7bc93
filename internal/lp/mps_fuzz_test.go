package lp_test

import (
	"bytes"
	"testing"

	"hiopt/internal/lp"
)

// FuzzReadMPS feeds arbitrary bytes to ReadMPS, which must never panic.
// Whatever it accepts must survive a second trip through the writer: the
// problem written, read back and written again gives the same bytes. The
// seed corpus is testdata/fuzz/FuzzReadMPS (small hand-written files:
// the fuzzer stalls on a seed the size of the M=40 fixture); run
//
//	go test -run=NONE -fuzz=FuzzReadMPS -fuzztime=30s ./internal/lp
//
// to search beyond it.
func FuzzReadMPS(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := lp.ReadMPS(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := lp.WriteMPS(&first, c, "fuzz"); err != nil {
			t.Fatalf("WriteMPS of an accepted problem: %v", err)
		}
		again, err := lp.ReadMPS(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadMPS rejects WriteMPS output: %v\n%s", err, first.Bytes())
		}
		if err := lp.WriteMPS(&second, again, "fuzz"); err != nil {
			t.Fatalf("second WriteMPS: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteMPS→ReadMPS→WriteMPS is not byte-identical:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
