package engine

import (
	"bytes"
	"testing"

	"hiopt/internal/netsim"
)

// FuzzScanSnapshot feeds arbitrary bytes to the cache-file entry scanner
// behind LoadCache and the spill writer's tail recovery. Its callers
// validate the header first, so inputs shorter than a header are out of
// scope. For everything else the scan must not panic, must return an
// offset inside the data, and must emit only entries that re-encode
// through appendSnapEntry to exactly the bytes they were read from — in
// file order and before the returned offset. Since appendSnapEntry ends
// an entry with the checksum of its own bytes, the byte equality also
// proves that no entry with a failing checksum was emitted. The seed
// corpus in testdata/fuzz holds a small SaveCache file, a truncated copy
// and a copy with one flipped checksum byte.
func FuzzScanSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < snapHeaderLen {
			return
		}
		pos := snapHeaderLen
		off := scanSnapshot(data, func(k Key, r *netsim.Result) {
			enc := appendSnapEntry(nil, k, r)
			i := bytes.Index(data[pos:], enc)
			if i < 0 {
				t.Fatalf("emitted entry %+v does not re-encode to bytes at or after offset %d", k, pos)
			}
			pos += i + len(enc)
		})
		if off < snapHeaderLen || off > len(data) {
			t.Fatalf("offset %d outside the data [%d, %d]", off, snapHeaderLen, len(data))
		}
		if pos > off {
			t.Fatalf("emitted entries end at %d, past the returned offset %d", pos, off)
		}
	})
}
