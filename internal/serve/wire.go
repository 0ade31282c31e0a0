package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
)

// The service's wire protocol over TCP.
//
// The stream is a sequence of length-prefixed messages: a u32 little-
// endian byte count followed by that many message bytes. Each message is
// either a v2v protocol frame (magic "RL" — trajectory DATA frames from
// the client, cumulative-ack beacons from the server; the codec is reused
// verbatim, see internal/v2v) or one of this package's control frames
// (magic "RS"). Control frames follow the v2v framing conventions: little
// endian, a type byte, a flags byte (reserved, ignored on parse), and an
// IEEE CRC32 trailer over everything before it — TCP already guarantees
// integrity, but the CRC makes a desynchronized or hostile stream fail
// parsing instead of decoding garbage, and keeps the two frame families
// symmetric.
//
// Control frames:
//
//	HELLO  (client → server)  vehicle u32, epoch u32, width u16
//	QUERY  (client → server)  qid u32, a u32, b u32, deadlineRel f64
//	RESULT (server → client)  qid u32, status u8, stale u8, distance f64,
//	                          latency f64
//	REFUSE (server → client)  qid u32 (0 = whole connection), reason u8,
//	                          retryAfter f64 seconds
//	DRAIN  (server → client)  no fields — the server is draining; finish
//	                          reading pending results and reconnect later
//
// QUERY deadlines are *relative* seconds on purpose: an absolute deadline
// would require the client and server clocks to agree, and "fix relative
// distances without shared absolute references" is the whole point of the
// paper. The server anchors the deadline to its own clock at admission.
const (
	ctrlMagic uint16 = 0x5352 // "RS"

	ctrlHello  byte = 1
	ctrlQuery  byte = 2
	ctrlResult byte = 3
	ctrlRefuse byte = 4
	ctrlDrain  byte = 5

	ctrlCRCLen = 4

	helloLen  = 4 + 4 + 4 + 2 + ctrlCRCLen
	queryLen  = 4 + 4 + 4 + 4 + 8 + ctrlCRCLen
	resultLen = 4 + 4 + 1 + 1 + 8 + 8 + ctrlCRCLen
	refuseLen = 4 + 4 + 1 + 8 + ctrlCRCLen
	drainLen  = 4 + ctrlCRCLen

	// maxMsgLen bounds one length-prefixed message. v2v DATA frames are
	// WSM-bounded (~1.4 KB); anything larger is a malformed or hostile
	// stream and disconnects rather than allocates.
	maxMsgLen = 4096
)

// Result statuses.
const (
	// StatusOK: the pair resolved; Distance is the d_r estimate.
	StatusOK byte = 0
	// StatusUnresolved: the pair could not be resolved — no coherent SYN
	// point, or context expired under the staleness policy.
	StatusUnresolved byte = 1
	// StatusShed: the query's deadline expired before resolution started;
	// the work was dropped unrun. Retry with a fresher deadline.
	StatusShed byte = 2
	// StatusUnknownVehicle: one of the queried vehicles has no resident
	// context (never streamed, or evicted).
	StatusUnknownVehicle byte = 3
)

// Refuse reasons.
const (
	// RefuseQueueFull: the engine admission queue (or the per-connection
	// outstanding-query bound) is at capacity.
	RefuseQueueFull byte = 1
	// RefuseRate: the per-client query rate limit is exhausted.
	RefuseRate byte = 2
	// RefuseDraining: the server is draining for shutdown.
	RefuseDraining byte = 3
	// RefuseConnLimit: the server is at its connection cap.
	RefuseConnLimit byte = 4
)

var errBadCtrl = errors.New("serve: malformed control frame")

// writeMsg frames b as one length-prefixed message on w.
func writeMsg(w io.Writer, b []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readMsg reads one length-prefixed message, rejecting oversized lengths
// before allocating.
func readMsg(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxMsgLen {
		return nil, &framingError{n}
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// sealCtrl appends the CRC trailer.
func sealCtrl(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// openCtrl validates magic, type, exact length, and CRC, returning the
// frame body (everything before the CRC).
func openCtrl(b []byte, typ byte, wantLen int) ([]byte, error) {
	if len(b) != wantLen || binary.LittleEndian.Uint16(b[0:]) != ctrlMagic || b[2] != typ {
		return nil, errBadCtrl
	}
	body, tail := b[:len(b)-ctrlCRCLen], b[len(b)-ctrlCRCLen:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, errBadCtrl
	}
	return body, nil
}

// isCtrl reports whether b begins with the control-frame magic.
func isCtrl(b []byte) bool {
	return len(b) >= 3 && binary.LittleEndian.Uint16(b[0:]) == ctrlMagic
}

func helloFrame(vehicle, epoch uint32, width uint16) []byte {
	b := make([]byte, 0, helloLen)
	b = binary.LittleEndian.AppendUint16(b, ctrlMagic)
	b = append(b, ctrlHello, 0)
	b = binary.LittleEndian.AppendUint32(b, vehicle)
	b = binary.LittleEndian.AppendUint32(b, epoch)
	b = binary.LittleEndian.AppendUint16(b, width)
	return sealCtrl(b)
}

func parseHello(b []byte) (vehicle, epoch uint32, width uint16, err error) {
	body, err := openCtrl(b, ctrlHello, helloLen)
	if err != nil {
		return 0, 0, 0, err
	}
	return binary.LittleEndian.Uint32(body[4:]),
		binary.LittleEndian.Uint32(body[8:]),
		binary.LittleEndian.Uint16(body[12:]), nil
}

func queryFrame(qid, a, b uint32, deadlineRel float64) []byte {
	fr := make([]byte, 0, queryLen)
	fr = binary.LittleEndian.AppendUint16(fr, ctrlMagic)
	fr = append(fr, ctrlQuery, 0)
	fr = binary.LittleEndian.AppendUint32(fr, qid)
	fr = binary.LittleEndian.AppendUint32(fr, a)
	fr = binary.LittleEndian.AppendUint32(fr, b)
	fr = binary.LittleEndian.AppendUint64(fr, math.Float64bits(deadlineRel))
	return sealCtrl(fr)
}

func parseQuery(b []byte) (qid, va, vb uint32, deadlineRel float64, err error) {
	body, err := openCtrl(b, ctrlQuery, queryLen)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return binary.LittleEndian.Uint32(body[4:]),
		binary.LittleEndian.Uint32(body[8:]),
		binary.LittleEndian.Uint32(body[12:]),
		math.Float64frombits(binary.LittleEndian.Uint64(body[16:])), nil
}

func resultFrame(qid uint32, status byte, stale bool, distance, latency float64) []byte {
	fr := make([]byte, 0, resultLen)
	fr = binary.LittleEndian.AppendUint16(fr, ctrlMagic)
	fr = append(fr, ctrlResult, 0)
	fr = binary.LittleEndian.AppendUint32(fr, qid)
	st := byte(0)
	if stale {
		st = 1
	}
	fr = append(fr, status, st)
	fr = binary.LittleEndian.AppendUint64(fr, math.Float64bits(distance))
	fr = binary.LittleEndian.AppendUint64(fr, math.Float64bits(latency))
	return sealCtrl(fr)
}

func parseResult(b []byte) (qid uint32, status byte, stale bool, distance, latency float64, err error) {
	body, err := openCtrl(b, ctrlResult, resultLen)
	if err != nil {
		return 0, 0, false, 0, 0, err
	}
	if body[9] > 1 {
		// The stale byte is a bool; anything else would not re-encode.
		return 0, 0, false, 0, 0, errBadCtrl
	}
	return binary.LittleEndian.Uint32(body[4:]),
		body[8], body[9] != 0,
		math.Float64frombits(binary.LittleEndian.Uint64(body[10:])),
		math.Float64frombits(binary.LittleEndian.Uint64(body[18:])), nil
}

func refuseFrame(qid uint32, reason byte, retryAfter float64) []byte {
	fr := make([]byte, 0, refuseLen)
	fr = binary.LittleEndian.AppendUint16(fr, ctrlMagic)
	fr = append(fr, ctrlRefuse, 0)
	fr = binary.LittleEndian.AppendUint32(fr, qid)
	fr = append(fr, reason)
	fr = binary.LittleEndian.AppendUint64(fr, math.Float64bits(retryAfter))
	return sealCtrl(fr)
}

func parseRefuse(b []byte) (qid uint32, reason byte, retryAfter float64, err error) {
	body, err := openCtrl(b, ctrlRefuse, refuseLen)
	if err != nil {
		return 0, 0, 0, err
	}
	return binary.LittleEndian.Uint32(body[4:]),
		body[8],
		math.Float64frombits(binary.LittleEndian.Uint64(body[9:])), nil
}

func drainFrame() []byte {
	fr := make([]byte, 0, drainLen)
	fr = binary.LittleEndian.AppendUint16(fr, ctrlMagic)
	fr = append(fr, ctrlDrain, 0)
	return sealCtrl(fr)
}

func isDrain(b []byte) bool {
	_, err := openCtrl(b, ctrlDrain, drainLen)
	return err == nil
}
