package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzControlFrame feeds arbitrary bytes through the service's message
// framing (readMsg) and every control-frame parser. Nothing may panic, a
// stream may only fail on a framing error or by running out, and every
// frame a parser accepts must re-encode to the same bytes, apart from the
// reserved flags byte. Each message is also tried with its CRC trailer
// repaired, so mutations reach the field decoders behind the checksum.
func FuzzControlFrame(f *testing.F) {
	for _, fr := range [][]byte{
		helloFrame(7, 3, 194),
		queryFrame(1, 7, 8, 0.25),
		resultFrame(1, StatusOK, true, -12.5, 0.003),
		refuseFrame(0, RefuseConnLimit, 2),
		drainFrame(),
	} {
		var b bytes.Buffer
		if err := writeMsg(&b, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x52, 0x53})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			msg, err := readMsg(r)
			if err != nil {
				var fe *framingError
				if !errors.As(err, &fe) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("readMsg failed with %v", err)
				}
				return
			}
			if len(msg) == 0 || len(msg) > maxMsgLen {
				t.Fatalf("readMsg returned a %d-byte message", len(msg))
			}
			checkCtrl(t, msg)
			if len(msg) > ctrlCRCLen {
				checkCtrl(t, sealCtrl(append([]byte(nil), msg[:len(msg)-ctrlCRCLen]...)))
			}
		}
	})
}

// checkCtrl runs b through every control-frame parser: at most one may
// accept it, and an accepted frame must re-encode to b with its flags byte
// cleared.
func checkCtrl(t *testing.T, b []byte) {
	t.Helper()
	var again [][]byte
	if v, e, w, err := parseHello(b); err == nil {
		again = append(again, helloFrame(v, e, w))
	}
	if q, va, vb, d, err := parseQuery(b); err == nil {
		again = append(again, queryFrame(q, va, vb, d))
	}
	if q, st, stale, d, l, err := parseResult(b); err == nil {
		again = append(again, resultFrame(q, st, stale, d, l))
	}
	if q, reason, retry, err := parseRefuse(b); err == nil {
		again = append(again, refuseFrame(q, reason, retry))
	}
	if isDrain(b) {
		again = append(again, drainFrame())
	}
	if len(again) == 0 {
		return
	}
	if len(again) > 1 || !isCtrl(b) {
		t.Fatalf("% x: accepted by %d parsers, control magic %v", b, len(again), isCtrl(b))
	}
	want := append([]byte(nil), b[:len(b)-ctrlCRCLen]...)
	want[3] = 0
	if want = sealCtrl(want); !bytes.Equal(again[0], want) {
		t.Fatalf("accepted frame % x re-encodes as % x", b, again[0])
	}
}
