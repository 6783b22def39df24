package worksite

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/sensors"
)

// checkAgainstStdlib runs one input through the fast parser and asserts its
// contract: whenever the fast path accepts, encoding/json must accept the
// same bytes and produce an identical message. (The fast path rejecting is
// always fine — the caller falls back to the stdlib.)
func checkAgainstStdlib(t *testing.T, payload []byte) {
	t.Helper()
	intern := make(internTable)
	var fast wireMsg
	ok := fastParseWireMsg(payload, &fast, intern)

	var std wireMsg
	err := json.Unmarshal(payload, &std)
	if !ok {
		return
	}
	if err != nil {
		t.Fatalf("fast path accepted input the stdlib rejects (%v): %q", err, payload)
	}
	if !sameParse(fast, std) {
		t.Fatalf("fast path diverges from stdlib on %q:\nfast: %+v\nstd:  %+v", payload, fast, std)
	}
}

// sameParse compares a fast-path parse with the stdlib's decode of the same
// bytes. nil-vs-empty detections is the one representational difference
// the scratch reuse introduces (the consumers only look at len), so an
// empty list on both sides matches; everything else must be identical.
func sameParse(fast, std wireMsg) bool {
	if len(fast.Detections) == 0 && len(std.Detections) == 0 {
		fast.Detections, std.Detections = nil, nil
	}
	return identical(fast, std)
}

// identical reports whether a and b are the same bit for bit. Unlike
// reflect.DeepEqual it tells -0 from +0 (floats compare by their IEEE
// bits) and a nil slice from an empty one.
func identical(a, b any) bool {
	return identicalValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func identicalValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !identicalValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !identicalValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String, reflect.Bool, reflect.Uint64:
		return a.Interface() == b.Interface()
	default:
		panic(fmt.Sprintf("identical: unhandled kind %s", a.Kind()))
	}
}

// TestIdenticalTellsSignedZeroAndNil pins the comparator itself: each pair
// differs only by a zero's sign or a nil-vs-empty list, and reflect.DeepEqual
// reports the two signed-zero pairs equal.
func TestIdenticalTellsSignedZeroAndNil(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pairs := [][2]wireMsg{
		{{PosX: negZero}, {}},
		{{Detections: []sensors.Detection{{Pos: geo.V(negZero, 0)}}}, {Detections: []sensors.Detection{{}}}},
		{{Detections: []sensors.Detection{}}, {}},
	}
	for i, p := range pairs {
		if identical(p[0], p[1]) {
			t.Errorf("pair %d: identical reports %+v equal to %+v", i, p[0], p[1])
		}
		if !identical(p[0], p[0]) {
			t.Errorf("pair %d: identical reports %+v unequal to itself", i, p[0])
		}
	}
}

// TestWireCodecDifferential feeds the codec every message shape the worksite
// actually sends — the encoder must match json.Marshal on each, and the
// parser must accept the result — plus edge and hostile inputs, checking
// equivalence with encoding/json.
func TestWireCodecDifferential(t *testing.T) {
	msgs := []wireMsg{
		{},
		{Type: "heartbeat", From: "coordinator"},
		{Type: "status", From: "forwarder-1", PosX: 123.456789012345, PosY: -0.000123,
			State: "driving", GNSSOK: true, GNSSWhy: ""},
		{Type: "status", From: "forwarder-1", PosX: 1e21, PosY: -1e-7,
			GNSSOK: false, GNSSWhy: "position jump exceeds max speed"},
		{Type: "command", From: "coordinator", Command: "clear-stops", Seq: 18446744073709551615},
		{Type: "detections", From: "drone-1", Detections: []sensors.Detection{
			{TargetID: "worker-1", Pos: geo.V(200.123456789, 199.55), Confidence: 0.92, Sensor: "aerial-camera"},
			{TargetID: "", Pos: geo.V(-3.5, 0), Confidence: 0.31, Sensor: "camera", FalsePositive: true},
		}},
		{Type: "detections", From: "drone-1", Detections: []sensors.Detection{}},
	}
	for _, m := range msgs {
		checkEncodeAgainstStdlib(t, &m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstStdlib(t, data)

		// The fast path must accept its own production grammar: a rejected
		// self-encoded message would silently fall back every tick.
		intern := make(internTable)
		var fast wireMsg
		if !fastParseWireMsg(data, &fast, intern) {
			t.Fatalf("fast path rejected self-encoded message %q", data)
		}
	}

	edgeInputs := []string{
		``, `{}`, `null`, `true`, `42`, `"str"`, `[]`,
		`{"type":"heartbeat"`,                             // truncated
		`{"type":"heartbeat",}`,                           // trailing comma
		`{"type":"heartbeat"} garbage`,                    // trailing bytes
		`{"type": "heartbeat" , "from" : "coordinator" }`, // whitespace
		`{"TYPE":"heartbeat"}`,                            // case-insensitive stdlib match
		`{"type":"he\u0061rtbeat"}`,                       // escape
		`{"type":"tick\ttock"}`,                           // raw control char (invalid JSON)
		`{"unknown":{"nested":[1,2,{"x":3}]},"type":"x"}`, // unknown keys
		`{"seq":-1}`, `{"seq":1.5}`, `{"seq":1e3}`,        // non-uint seq forms
		`{"posX":0.1e+5,"posY":-0}`,                   // exotic but valid numbers
		`{"posX":00.1}`, `{"posX":.5}`, `{"posX":5.}`, // invalid numbers
		`{"posX":0x1p3}`, `{"posX":Inf}`, `{"posX":NaN}`, // ParseFloat-only forms
		`{"gnssOk":1}`, `{"gnssOk":"true"}`, // non-bool bools
		`{"detections":null}`,                                // null array
		`{"detections":[null]}`,                              // null element
		`{"detections":[{"pos":{"x":1,"y":2,"z":3}}]}`,       // unknown vec key
		`{"detections":[{"targetId":"w","pos":{"x":1}}]}`,    // partial vec
		`{"type":"detections","detections":[]}`,              // empty array
		`{"type":"a","type":"b"}`,                            // duplicate key
		`{"detections":[{"confidence":1},{"confidence":2}]}`, // multiple elements
		`{"type":"x","detections":[{"falsePositive":true}],"command":"pause"}`,
		"{\"type\":\"caf\xc3\xa9\"}",                // non-ASCII UTF-8
		"{\"type\":\"bad\xff\xfe\"}",                // invalid UTF-8 (stdlib coerces; fast must reject)
		`{"posX":123456789012345678901234567890.5}`, // huge mantissa
		`{"seq":18446744073709551616}`,              // uint64 overflow
	}
	for _, in := range edgeInputs {
		checkAgainstStdlib(t, []byte(in))
	}
}

// TestWireCodecScratchReuse exercises the production calling pattern: one
// scratch message decoded repeatedly with interning, ensuring a later decode
// fully overwrites an earlier one.
func TestWireCodecScratchReuse(t *testing.T) {
	intern := make(internTable)
	var msg wireMsg

	decode := func(m wireMsg) wireMsg {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		msg = wireMsg{Detections: msg.Detections[:0]}
		if !fastParseWireMsg(data, &msg, intern) {
			t.Fatalf("fast path rejected %q", data)
		}
		return msg
	}

	full := wireMsg{Type: "detections", From: "drone-1", Detections: []sensors.Detection{
		{TargetID: "worker-2", Pos: geo.V(1, 2), Confidence: 0.5, Sensor: "aerial-camera"},
	}}
	got := decode(full)
	if got.Type != "detections" || len(got.Detections) != 1 || got.Detections[0].TargetID != "worker-2" {
		t.Fatalf("first decode wrong: %+v", got)
	}
	first := got.Detections[0]

	got = decode(wireMsg{Type: "heartbeat", From: "coordinator"})
	if got.Type != "heartbeat" || got.From != "coordinator" || len(got.Detections) != 0 {
		t.Fatalf("scratch not fully overwritten: %+v", got)
	}

	// Interning must hand back the same string backing across decodes.
	got = decode(full)
	if got.Detections[0].TargetID != first.TargetID || got.Detections[0].Sensor != first.Sensor {
		t.Fatalf("re-decode differs: %+v", got.Detections[0])
	}
}

// FuzzWireCodec drives the differential check with arbitrary bytes: the fast
// parser must never accept anything encoding/json rejects, nor produce a
// different message for anything both accept.
func FuzzWireCodec(f *testing.F) {
	seeds := []string{
		`{"type":"heartbeat","from":"coordinator"}`,
		`{"type":"status","from":"forwarder-1","posX":204.35,"posY":199.9,"state":"driving","gnssOk":true}`,
		`{"type":"detections","from":"drone-1","detections":[{"targetId":"worker-1","pos":{"x":1.5,"y":-2},"confidence":0.9,"sensor":"aerial-camera","falsePositive":false}]}`,
		`{"type":"command","from":"attacker","command":"clear-stops","seq":7}`,
		`{"posX":1e308,"posY":-1e-308}`,
		`{"type":"<&>\u2028\"\\\n","from":"\u0001\u007f","state":"caf\u00e9"}`,
		`{"type":"status","posX":-0,"posY":-0}`,                                        // -0 that re-encoding omits
		`{"type":"detections","detections":[{"pos":{"x":-0,"y":-0},"confidence":-0}]}`, // -0 it keeps
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var std wireMsg
		stdErr := json.Unmarshal(data, &std)
		if stdErr == nil {
			checkEncodeAgainstStdlib(t, &std)
			checkSnapshotAgainstStdlib(t, &std)
		}
		// The raw bytes as one string field, picked by the first byte:
		// strings json.Unmarshal never produces (invalid UTF-8, any control
		// byte) reach the encoder and the sent ring too.
		if len(data) > 0 {
			rawMsg := wireMsg{Type: "detections", Detections: []sensors.Detection{{}}}
			fields := []*string{&rawMsg.Type, &rawMsg.From, &rawMsg.State, &rawMsg.GNSSWhy,
				&rawMsg.Command, &rawMsg.Detections[0].TargetID, &rawMsg.Detections[0].Sensor}
			*fields[int(data[0])%len(fields)] = string(data[1:])
			checkEncodeAgainstStdlib(t, &rawMsg)
			checkSnapshotAgainstStdlib(t, &rawMsg)
		}

		intern := make(internTable)
		var fast wireMsg
		if !fastParseWireMsg(data, &fast, intern) {
			return
		}
		if stdErr != nil {
			t.Fatalf("fast path accepted input the stdlib rejects (%v): %q", stdErr, data)
		}
		if !sameParse(fast, std) {
			t.Fatalf("divergence on %q:\nfast: %+v\nstd:  %+v", data, fast, std)
		}
	})
}

// checkEncodeAgainstStdlib asserts the encoder's contract for one message:
// appendWireMsg succeeds exactly when json.Marshal does, with the same
// bytes, appended after whatever the buffer already holds; on failure the
// buffer comes back at its original length.
func checkEncodeAgainstStdlib(t *testing.T, msg *wireMsg) {
	t.Helper()
	want, err := json.Marshal(msg)
	prefix := []byte("prefix")
	got, ok := appendWireMsg(prefix, msg)
	if ok != (err == nil) {
		t.Fatalf("appendWireMsg ok=%v, json.Marshal err=%v for %+v", ok, err, *msg)
	}
	if !ok {
		if string(got) != "prefix" {
			t.Fatalf("failed encode left %q in the buffer, want %q", got, "prefix")
		}
		return
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("encoding diverges from json.Marshal for %+v:\ngot:  %s\nwant: prefix%s", *msg, got, want)
	}
}

// checkSnapshotAgainstStdlib asserts the sent ring's contract for one
// message: once recorded, its encoding looks up a snapshot bit-identical to
// json.Unmarshal of those bytes. Only a message the encoder rejects, or one
// carrying invalid UTF-8, goes unrecorded. Every slot has carried
// detections before, as on a running site, so reused buffers are in play.
func checkSnapshotAgainstStdlib(t *testing.T, msg *wireMsg) {
	t.Helper()
	wire, ok := appendWireMsg(nil, msg)
	if !ok {
		return
	}
	var r sentRing
	prior := benchWireMsg()
	priorWire, _ := appendWireMsg(nil, &prior)
	for i := 0; i < sentRingSize; i++ {
		r.record(priorWire, &prior)
	}
	r.record(wire, msg)
	snap := r.lookup(wire)
	if snap == nil {
		if msg.validUTF8() {
			t.Fatalf("valid message not recorded: %+v", *msg)
		}
		return
	}
	if !msg.validUTF8() {
		t.Fatalf("message with invalid UTF-8 recorded: %+v", *msg)
	}
	var want wireMsg
	if err := json.Unmarshal(wire, &want); err != nil {
		t.Fatalf("json.Unmarshal rejects the encoder's own bytes %q: %v", wire, err)
	}
	if !identical(*snap, want) {
		t.Fatalf("snapshot diverges from json.Unmarshal of %q:\nsnap: %+v\nstd:  %+v", wire, *snap, want)
	}
}

// TestSentRingSnapshotIsUnmarshal checks the snapshot contract over every
// encoder case — signed zeros kept and omitted, empty detection lists,
// escapes, non-ASCII and invalid UTF-8 — and the ring's lookup rules.
func TestSentRingSnapshotIsUnmarshal(t *testing.T) {
	cases := encoderCases()
	for i := range cases {
		checkSnapshotAgainstStdlib(t, &cases[i])
	}

	// The ring remembers the last sentRingSize messages, newest first, and
	// never matches an unused slot.
	var r sentRing
	if r.lookup(nil) != nil || r.lookup([]byte{}) != nil {
		t.Fatal("an empty ring matched an empty payload")
	}
	wires := make([][]byte, sentRingSize+1)
	for i := range wires {
		m := wireMsg{Type: "status", From: string(NodeForwarder), Seq: uint64(i + 1)}
		wires[i], _ = appendWireMsg(nil, &m)
		r.record(wires[i], &m)
	}
	if r.lookup(wires[0]) != nil {
		t.Fatal("the oldest message outlived its slot")
	}
	for i, w := range wires[1:] {
		if m := r.lookup(w); m == nil || m.Seq != uint64(i+2) {
			t.Fatalf("message %d: lookup = %+v", i+2, m)
		}
	}
	// A message with invalid UTF-8 leaves the ring as it was.
	bad := wireMsg{Type: "status", From: "\xff"}
	badWire, _ := appendWireMsg(nil, &bad)
	r.record(badWire, &bad)
	if r.lookup(badWire) != nil || r.lookup(wires[1]) == nil {
		t.Fatal("recording an invalid-UTF-8 message changed the ring")
	}
}

// TestAppendWireMsgMatchesMarshal covers what the fuzzer cannot reach
// through json.Unmarshal: strings the stdlib would never decode to (invalid
// UTF-8, raw control bytes), HTML and JavaScript escapes, float formatting
// edges, every omitempty combination, and the non-finite floats that must
// fail the encode.
func TestAppendWireMsgMatchesMarshal(t *testing.T) {
	msgs := encoderCases()
	for i := range msgs {
		checkEncodeAgainstStdlib(t, &msgs[i])
	}
}

// encoderCases is the encoder's edge table, shared by the encoder and
// snapshot tests.
func encoderCases() []wireMsg {
	det := sensors.Detection{TargetID: "worker-1", Pos: geo.V(200.5, -3), Confidence: 0.92, Sensor: "aerial-camera"}
	var msgs []wireMsg

	for _, str := range []string{
		"<", ">", "&", "a<b>&c", "\xff", "bad\xff\xfeutf8", "\xe2\x80",
		"\u2028", "\u2029", "x\u2028y\u2029z", "\b", "\f", "\x01", "\x1f", "\x7f",
		"\"", "\\", "\n\r\t", "caf\u00e9", "\U0001F332", "",
	} {
		msgs = append(msgs,
			wireMsg{Type: str, From: str, State: str, GNSSWhy: str, Command: str},
			wireMsg{Type: "detections", Detections: []sensors.Detection{{TargetID: str, Sensor: str}}})
	}

	for _, f := range []float64{
		math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 1e20, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		0.1, -123.456789012345, 1e-100, 123456789012345678901234567890.5,
	} {
		d := det
		d.Pos, d.Confidence = geo.V(f, -f), f
		msgs = append(msgs,
			wireMsg{Type: "status", PosX: f, PosY: -f},
			wireMsg{Type: "detections", Detections: []sensors.Detection{d}})
	}

	// Every omitempty combination: each field present and absent alongside
	// every other.
	for mask := 0; mask < 1<<8; mask++ {
		m := wireMsg{Type: "status", From: "forwarder-1"}
		if mask&1 != 0 {
			m.Seq = 18446744073709551615
		}
		if mask&2 != 0 {
			m.PosX = 204.35
		}
		if mask&4 != 0 {
			m.PosY = -199.9
		}
		if mask&8 != 0 {
			m.State = "driving"
		}
		if mask&16 != 0 {
			m.GNSSOK = true
		}
		if mask&32 != 0 {
			m.GNSSWhy = "position jump exceeds max speed"
		}
		if mask&64 != 0 {
			m.Detections = []sensors.Detection{det, {FalsePositive: true}}
		}
		if mask&128 != 0 {
			m.Command = CommandClearStops
		}
		msgs = append(msgs, m)
	}
	msgs = append(msgs,
		wireMsg{Type: "detections", Detections: nil},
		wireMsg{Type: "detections", Detections: []sensors.Detection{}})

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := det
		bad.Confidence = f
		msgs = append(msgs,
			wireMsg{Type: "status", PosX: f, PosY: 1},
			wireMsg{Type: "status", PosX: 1, PosY: f},
			wireMsg{Type: "detections", Detections: []sensors.Detection{det, bad}},
			wireMsg{Type: "detections", Detections: []sensors.Detection{{Pos: geo.V(f, 0)}}},
			wireMsg{Type: "detections", Detections: []sensors.Detection{{Pos: geo.V(0, f)}}})
	}
	return msgs
}

// TestSendDropsUnencodableMessage locks the send path's failure mode: a
// message json.Marshal would reject never reaches the radio.
func TestSendDropsUnencodableMessage(t *testing.T) {
	site, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	status := func(x float64) wireMsg {
		return wireMsg{Type: "status", From: string(NodeForwarder), PosX: x, PosY: 1, State: "driving"}
	}
	before := site.med.Stats().Transmissions
	site.send(NodeForwarder, NodeCoordinator, status(math.NaN()))
	if got := site.med.Stats().Transmissions; got != before {
		t.Fatalf("NaN status transmitted %d frame(s)", got-before)
	}
	// The same message with a finite position does go out, so the check
	// above is not vacuous.
	site.send(NodeForwarder, NodeCoordinator, status(2))
	if got := site.med.Stats().Transmissions; got != before+1 {
		t.Fatalf("finite status transmitted %d frame(s), want 1", got-before)
	}
}

// benchWireMsg is the drone's per-tick detections message with three
// detections, the hottest message shape on the worksite network.
func benchWireMsg() wireMsg {
	return wireMsg{Type: "detections", From: string(NodeDrone), Detections: []sensors.Detection{
		{TargetID: "worker-1", Pos: geo.V(204.35118423, 199.9027731), Confidence: 0.9187, Sensor: "aerial-camera"},
		{TargetID: "worker-2", Pos: geo.V(187.00731, 215.4471902), Confidence: 0.7342, Sensor: "aerial-camera"},
		{TargetID: "clutter", Pos: geo.V(230.1, 180.66), Confidence: 0.3101, Sensor: "aerial-camera", FalsePositive: true},
	}}
}

// BenchmarkWireEncode is the wire-encode rung of the per-layer ladder: one
// appendWireMsg into a reused buffer, as Site.send does.
func BenchmarkWireEncode(b *testing.B) {
	msg := benchWireMsg()
	buf, _ := appendWireMsg(nil, &msg)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = appendWireMsg(buf[:0], &msg); !ok {
			b.Fatal("encode failed")
		}
	}
}

// BenchmarkWireDecode is the wire-decode rung: one fast-path parse into the
// reused receive scratch with interning, as handleAppPayload does.
func BenchmarkWireDecode(b *testing.B) {
	msg := benchWireMsg()
	payload, ok := appendWireMsg(nil, &msg)
	if !ok {
		b.Fatal("encode failed")
	}
	intern := make(internTable)
	var dst wireMsg
	fastParseWireMsg(payload, &dst, intern) // fill the intern table and slice
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = wireMsg{Detections: dst.Detections[:0]}
		if !fastParseWireMsg(payload, &dst, intern) {
			b.Fatal("decode rejected its own encoding")
		}
	}
}

// TestFallbackDecodeDoesNotLeakScratch locks the fix for a scratch-reuse
// bug: when a message falls back to encoding/json (here forced via an escape
// sequence), the decode must start from a zero message — the stdlib merges
// into within-capacity slice elements without zeroing, so decoding into the
// reused scratch would leak fields of an earlier detections message into the
// new one.
func TestFallbackDecodeDoesNotLeakScratch(t *testing.T) {
	site, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	full := []byte(`{"type":"detections","from":"drone-1","detections":` +
		`[{"targetId":"worker-1","pos":{"x":1,"y":2},"confidence":0.92,"sensor":"aerial-camera","falsePositive":true}]}`)
	l := site.links[chanKey{NodeDrone, NodeForwarder}]
	site.handleAppPayload(l, NodeForwarder, NodeDrone, full)
	if len(site.droneDets) != 1 || site.droneDets[0].Confidence != 0.92 {
		t.Fatalf("fast-path decode wrong: %+v", site.droneDets)
	}

	// The \u0041 escape forces the stdlib fallback; every omitted field must
	// be zero.
	sparse := []byte(`{"type":"detections","from":"drone-1","detections":[{"targetId":"x\u0041"}]}`)
	site.handleAppPayload(l, NodeForwarder, NodeDrone, sparse)
	got := site.droneDets
	if len(got) != 1 || got[0].TargetID != "xA" {
		t.Fatalf("fallback decode wrong: %+v", got)
	}
	if got[0].Confidence != 0 || got[0].Sensor != "" || got[0].FalsePositive {
		t.Fatalf("fallback decode leaked fields from the previous message: %+v", got[0])
	}
}
