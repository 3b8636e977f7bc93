package serve

import (
	"bytes"
	"io"
	"testing"
)

// FuzzProfile drives the daemon's request boundary: the body is decoded
// exactly as POST /v1/design decodes it (decodeProfile: 64 KiB cap,
// unknown fields rejected) and then normalized. Nothing may panic, and a
// profile Normalize accepts must be canonical: normalizing it again
// returns it unchanged, with the same tenant cache salt.
func FuzzProfile(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"body_scale":1.23,"shadow_db":-3.7,"sigma_scale":0.33,"battery_frac":0.051,"pdr_min":0.999,"gamma":1.1,"robust_pdr_min":0.6,"duration":12.4,"runs":3,"seed":7,"max_iterations":5,"stream":true}`,
		`{"body_scale":2,"sigma_scale":4,"battery_frac":0.05,"pdr_min":1,"gamma":6,"duration":600,"runs":10,"max_iterations":200}`,
		`{"body_scale":2.5}`,
		`{"runs":-1}`,
		`{"unknown":1}`,
		`{"duration":1e308}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, err := decodeProfile(nil, io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			return
		}
		p, err := raw.Normalize()
		if err != nil {
			return
		}
		again, err := p.Normalize()
		if err != nil {
			t.Fatalf("normalized profile %+v rejected on re-normalization: %v", p, err)
		}
		if again != p {
			t.Fatalf("normalization not idempotent:\n first  %+v\n second %+v", p, again)
		}
		if again.salt() != p.salt() {
			t.Fatalf("salt changed on re-normalization of %+v", p)
		}
	})
}
