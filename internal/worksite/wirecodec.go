package worksite

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/sensors"
)

// Wire-message codec.
//
// Every application message on the worksite network is a JSON-encoded
// wireMsg; the drone streams one detections message per control tick, so
// both directions are squarely on the simulation's hot path. This file
// holds the encoder and the shortcut that lets honest traffic skip decoding;
// encoding/json decodes everything else.
//
//   - appendWireMsg encodes a message into a caller-owned buffer, producing
//     exactly json.Marshal's bytes (field order, omitempty, float format,
//     string escaping) without reflection or allocation. The bytes are
//     observable — their length sets radio airtime, and forged JSON is the
//     command-injection threat model — so the format is fixed by the
//     stdlib, not by this encoder. TestAppendWireMsgMatchesMarshal and
//     FuzzWireCodec lock the equivalence.
//   - sentRing remembers, per link, the last few messages sent: the encoded
//     bytes and a snapshot normalised to exactly what json.Unmarshal makes
//     of them. Sender and receiver share one Site, so a delivered plaintext
//     byte-equal to a remembered encoding is dispatched from the snapshot
//     without decoding. The bytes still cross the radio and the secure
//     channel; only bytes nobody altered skip the decode. FuzzWireCodec and
//     TestSentRingSnapshotIsUnmarshal lock
//     snapshot(m) == json.Unmarshal(appendWireMsg(m)).
//   - json.Unmarshal decodes every other payload: a replay older than the
//     ring, a tampered or injected frame. Only attacks produce such
//     payloads, and the stdlib is the authority on hostile input.

// appendWireMsg appends the JSON encoding of msg to b and returns the
// extended buffer. The bytes are exactly json.Marshal(msg)'s. ok is false
// exactly when json.Marshal would fail — a NaN or infinite float anywhere
// in the message — and then b is returned at its original length.
func appendWireMsg(b []byte, msg *wireMsg) ([]byte, bool) {
	start := len(b)
	b = append(b, `{"type":`...)
	b = appendWireString(b, msg.Type)
	b = append(b, `,"from":`...)
	b = appendWireString(b, msg.From)
	if msg.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, msg.Seq, 10)
	}
	ok := true
	if msg.PosX != 0 {
		b = append(b, `,"posX":`...)
		b, ok = appendWireFloat(b, msg.PosX)
	}
	if ok && msg.PosY != 0 {
		b = append(b, `,"posY":`...)
		b, ok = appendWireFloat(b, msg.PosY)
	}
	if !ok {
		return b[:start], false
	}
	if msg.State != "" {
		b = append(b, `,"state":`...)
		b = appendWireString(b, msg.State)
	}
	if msg.GNSSOK {
		b = append(b, `,"gnssOk":true`...)
	}
	if msg.GNSSWhy != "" {
		b = append(b, `,"gnssWhy":`...)
		b = appendWireString(b, msg.GNSSWhy)
	}
	if len(msg.Detections) > 0 {
		b = append(b, `,"detections":[`...)
		for i := range msg.Detections {
			if i > 0 {
				b = append(b, ',')
			}
			if b, ok = appendDetection(b, &msg.Detections[i]); !ok {
				return b[:start], false
			}
		}
		b = append(b, ']')
	}
	if msg.Command != "" {
		b = append(b, `,"command":`...)
		b = appendWireString(b, msg.Command)
	}
	return append(b, '}'), true
}

// appendDetection encodes one sensors.Detection; none of its fields is
// omitempty.
func appendDetection(b []byte, d *sensors.Detection) ([]byte, bool) {
	b = append(b, `{"targetId":`...)
	b = appendWireString(b, d.TargetID)
	b = append(b, `,"pos":{"x":`...)
	b, okX := appendWireFloat(b, d.Pos.X)
	b = append(b, `,"y":`...)
	b, okY := appendWireFloat(b, d.Pos.Y)
	b = append(b, `},"confidence":`...)
	b, okC := appendWireFloat(b, d.Confidence)
	b = append(b, `,"sensor":`...)
	b = appendWireString(b, d.Sensor)
	if d.FalsePositive {
		b = append(b, `,"falsePositive":true}`...)
	} else {
		b = append(b, `,"falsePositive":false}`...)
	}
	return b, okX && okY && okC
}

// appendWireFloat formats f the way encoding/json does for a float64: the
// shortest 'f' representation, switching to 'e' outside [1e-6, 1e21) with
// the exponent's leading zero dropped (e-07 -> e-7). NaN and ±Inf have no
// JSON form and report false.
func appendWireFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendWireString quotes s with encoding/json's default (HTML-safe)
// escaping: \" \\ and the short control escapes, \u00XX for the other
// control bytes and for < > &, \u2028/\u2029 for the JavaScript line
// separators, and \ufffd for each byte of invalid UTF-8.
func appendWireString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// sentRingSize is how many recent messages a link remembers. A link
// carries at most one message per control tick and delivers it within
// milliseconds, so the newest slot almost always matches; the older slots
// cover a frame still in flight when the next one is sent.
const sentRingSize = 4

// sentRing is a link's memory of its recently sent messages. Once every
// slot's buffers have reached their high water it allocates nothing.
type sentRing struct {
	slots [sentRingSize]sentSlot
	next  int // slot the next record overwrites
}

type sentSlot struct {
	wire []byte              // the encoded plaintext; empty while unused
	msg  wireMsg             // json.Unmarshal(wire), built without parsing
	dets []sensors.Detection // backing storage of msg.Detections
}

// record remembers msg, just encoded as wire by appendWireMsg. The snapshot
// is normalised to what json.Unmarshal returns for wire: omitempty drops a
// -0 PosX/PosY, which then decodes as +0, and an empty detection list,
// which then decodes as nil. A message carrying invalid UTF-8 is not
// recorded at all: the stdlib would replace each bad byte with U+FFFD, and
// such a message is left to json.Unmarshal rather than mirrored here.
func (r *sentRing) record(wire []byte, msg *wireMsg) {
	if !msg.validUTF8() {
		return
	}
	sl := &r.slots[r.next]
	r.next = (r.next + 1) % sentRingSize
	sl.wire = append(sl.wire[:0], wire...)
	sl.dets = append(sl.dets[:0], msg.Detections...)
	sl.msg = *msg
	sl.msg.Detections = nil
	if len(sl.dets) > 0 {
		sl.msg.Detections = sl.dets
	}
	if msg.PosX == 0 {
		sl.msg.PosX = 0
	}
	if msg.PosY == 0 {
		sl.msg.PosY = 0
	}
}

// lookup returns the snapshot of the remembered message whose encoding is
// exactly plain, newest first, or nil. The snapshot is valid until the slot
// is recorded over.
func (r *sentRing) lookup(plain []byte) *wireMsg {
	for i := 1; i <= sentRingSize; i++ {
		sl := &r.slots[(r.next-i+sentRingSize)%sentRingSize]
		if len(sl.wire) > 0 && bytes.Equal(sl.wire, plain) {
			return &sl.msg
		}
	}
	return nil
}

// validUTF8 reports whether every string in m is valid UTF-8, so that
// json.Unmarshal of its encoding returns each string unchanged.
func (m *wireMsg) validUTF8() bool {
	if !utf8.ValidString(m.Type) || !utf8.ValidString(m.From) || !utf8.ValidString(m.State) ||
		!utf8.ValidString(m.GNSSWhy) || !utf8.ValidString(m.Command) {
		return false
	}
	for i := range m.Detections {
		if !utf8.ValidString(m.Detections[i].TargetID) || !utf8.ValidString(m.Detections[i].Sensor) {
			return false
		}
	}
	return true
}
