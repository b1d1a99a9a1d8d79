package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"roadtrojan/internal/serve"
)

// FuzzReadFrame pins the strict-decode contract: whatever bytes arrive,
// ReadFrame returns io.EOF (clean boundary) or an ErrBadFrame-wrapped
// error — it never panics, and every frame it does accept re-encodes to a
// byte-identical wire image.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Type: FrameHello, Payload: []byte(`{"id":"n1","workers":4}`)}))
	f.Add(AppendFrame(nil, Frame{Type: FrameJob, JobID: 7, Payload: []byte(`{"scene":"road","seed":3}`)}))
	f.Add(AppendFrame(nil, Frame{Type: FrameDrain}))
	two := AppendFrame(nil, Frame{Type: FrameAck, JobID: 1})
	f.Add(AppendFrame(two, Frame{Type: FrameResult, JobID: 1, Payload: []byte(`{"pwc":0.5}`)}))
	valid := AppendFrame(nil, Frame{Type: FrameHealth, Payload: []byte(`{}`)})
	f.Add(valid[:len(valid)-1]) // truncated payload
	f.Add(valid[:headerSize-3]) // truncated header
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	hugeLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeLen[16:20], MaxPayload+1)
	f.Add(hugeLen)
	f.Add([]byte{})
	f.Add([]byte("RTFB"))
	// Chaos-shaped corpora: every truncation point of a two-frame stream
	// (mid-header, mid-payload, and at frame boundaries), and a single-bit
	// flip at every position of a small valid frame — the wire images the
	// fault injector's truncate and corrupt faults actually produce.
	stream := AppendFrame(AppendFrame(nil, Frame{Type: FrameAck, JobID: 9}),
		Frame{Type: FrameResult, JobID: 9, Payload: []byte(`{"pwc":0.5,"cached":false}`)})
	for i := range stream {
		f.Add(append([]byte(nil), stream[:i]...))
	}
	small := AppendFrame(nil, Frame{Type: FrameError, JobID: 2, Payload: []byte(`{"code":"x"}`)})
	for i := range small {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), small...)
			flipped[i] ^= 1 << bit
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if !frameTypeValid(fr.Type) {
				t.Fatalf("decoder accepted invalid type %d", fr.Type)
			}
			if len(fr.Payload) > MaxPayload {
				t.Fatalf("decoder accepted oversize payload %d", len(fr.Payload))
			}
			enc := AppendFrame(nil, fr)
			back, err := ReadFrame(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("re-decode of accepted frame failed: %v", err)
			}
			if back.Type != fr.Type || back.JobID != fr.JobID || !bytes.Equal(back.Payload, fr.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", fr, back)
			}
		}
	})
}

// FuzzDecodeJobPayload pins the node's job decoder: whatever payload
// arrives, decodeJob never panics, never reports a negative budget, and
// anything it accepts re-encodes (via the gateway's encodeJob) to a
// payload that decodes to the same request, budget and trace.
func FuzzDecodeJobPayload(f *testing.F) {
	req := serve.EvalRequest{Scene: "road", Challenge: "fix", Mode: "digital", Runs: 1, Seed: 5, Target: 2}
	for _, seed := range []struct {
		ms    int64
		trace string
	}{{0, ""}, {1500, ""}, {1500, "gw:gateway_request#0;gw;gateway_request#0/dispatch#0/attempt#0;3"}} {
		env, err := encodeJob(req, seed.ms, seed.trace)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		f.Add(env[:len(env)/2]) // truncated JSON
	}
	f.Add([]byte(`{"scene":"road","challenge":"fix","runs":1,"seed":5,"target":2}`)) // bare request
	f.Add([]byte(`{"timeoutMs":10,"req":"road"}`))                                   // req of the wrong type
	f.Add([]byte(`{"timeoutMs":9223372036854775807,"req":{}}`))                      // budget beyond time.Duration
	f.Add([]byte(`{"req":null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		req, timeout, trace, err := decodeJob(payload)
		if err != nil {
			return
		}
		if timeout < 0 {
			t.Fatalf("negative budget %v from %q", timeout, payload)
		}
		env, err := encodeJob(req, timeout.Milliseconds(), trace)
		if err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		req2, timeout2, trace2, err := decodeJob(env)
		if err != nil {
			t.Fatalf("re-decode of %q failed: %v", env, err)
		}
		if req2 != req || timeout2 != timeout || trace2 != trace {
			t.Fatalf("round trip mismatch: (%+v, %v, %q) vs (%+v, %v, %q)", req, timeout, trace, req2, timeout2, trace2)
		}
	})
}
