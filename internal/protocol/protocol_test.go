package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/meanet/meanet/internal/tensor"
)

func TestFrameRoundTrip(t *testing.T) {
	tests := []Frame{
		{Type: MsgPing, ID: 0},
		{Type: MsgClassifyRaw, ID: 42, Payload: []byte{1, 2, 3}},
		{Type: MsgResult, ID: 1 << 60, Payload: EncodeResult(7, 0.5)},
		{Type: MsgError, ID: 9, Payload: []byte("boom")},
		{Type: MsgClassifyFeatBatch, ID: 11, Payload: []byte{4, 5, 6}},
	}
	for _, f := range tests {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != f.Type || got.ID != f.ID || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip %+v → %+v", f, got)
		}
	}
}

func TestFrameStreamOrdering(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, Frame{Type: MsgPing, ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != uint64(i) {
			t.Fatalf("frame %d out of order: id %d", i, f.ID)
		}
	}
}

func TestReadFrameRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 'X'
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgClassifyRaw, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Forge a giant length field.
	raw[13], raw[14], raw[15], raw[16] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgClassifyRaw, Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:40]
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestWriteFrameRejectsHugePayload(t *testing.T) {
	f := Frame{Type: MsgClassifyRaw, Payload: make([]byte, MaxPayload+1)}
	if err := WriteFrame(&bytes.Buffer{}, f); err == nil {
		t.Fatal("huge payload accepted")
	}
}

func TestTensorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][]int{{3}, {2, 3}, {3, 8, 8}, {1, 2, 3, 4}}
	for _, shape := range shapes {
		x := tensor.Randn(rng, 1, shape...)
		dec, err := DecodeTensor(EncodeTensor(x))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.SameShape(x) {
			t.Fatalf("shape %v → %v", x.Shape(), dec.Shape())
		}
		for i := range x.Data() {
			if dec.Data()[i] != x.Data()[i] {
				t.Fatal("tensor data corrupted in round trip")
			}
		}
	}
}

func TestTensorRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(4)
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = 1 + rng.Intn(5)
		}
		x := tensor.Randn(rng, 2, shape...)
		dec, err := DecodeTensor(EncodeTensor(x))
		if err != nil || !dec.SameShape(x) {
			return false
		}
		for i := range x.Data() {
			if dec.Data()[i] != x.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTensorRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{0},                      // rank 0
		{9},                      // rank too large
		{2, 1, 0, 0, 0},          // truncated dims
		{1, 0, 0, 0, 0},          // zero dimension
		{1, 2, 0, 0, 0, 1, 2, 3}, // wrong data length
	}
	for i, b := range bad {
		if _, err := DecodeTensor(b); err == nil {
			t.Fatalf("garbage %d accepted", i)
		}
	}
}

func TestDecodeTensorRejectsOverflowShape(t *testing.T) {
	// rank 2 with dims ~65k × 65k → overflows MaxPayload bound.
	b := []byte{2, 0xff, 0xff, 0, 0, 0xff, 0xff, 0, 0}
	if _, err := DecodeTensor(b); err == nil {
		t.Fatal("overflowing shape accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	pred, conf, err := DecodeResult(EncodeResult(13, 0.875))
	if err != nil {
		t.Fatal(err)
	}
	if pred != 13 || conf != 0.875 {
		t.Fatalf("result round trip gave %d/%v", pred, conf)
	}
	if _, _, err := DecodeResult([]byte{1, 2, 3}); err == nil {
		t.Fatal("short result accepted")
	}
}

func TestResultsBatchRoundTrip(t *testing.T) {
	in := []Result{{Pred: 3, Conf: 0.25}, {Pred: 0, Conf: 1}, {Pred: 99, Conf: 0.007}}
	out, err := DecodeResults(EncodeResults(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip gave %d results, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("result %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	// Empty batches are legal (a server may flush an all-error batch).
	empty, err := DecodeResults(EncodeResults(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty batch decoded to %d results", len(empty))
	}
}

func TestDecodeResultsRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{1, 2},
		{1, 0, 0, 0},             // count 1, no body
		{2, 0, 0, 0, 1, 2, 3, 4}, // count 2, body for half a result
		append([]byte{255, 255, 255, 255}, make([]byte, 32)...), // absurd count
	} {
		if _, err := DecodeResults(b); err == nil {
			t.Fatalf("garbage %v accepted", b)
		}
	}
}

// TestMsgTypeWireValuesStable pins the on-wire numeric value of every
// message type: new types must be APPENDED, never inserted, or mixed-version
// edge/cloud deployments silently misparse each other.
func TestMsgTypeWireValuesStable(t *testing.T) {
	want := map[MsgType]uint8{
		MsgClassifyRaw:       1,
		MsgClassifyFeat:      2,
		MsgResult:            3,
		MsgError:             4,
		MsgPing:              5,
		MsgPong:              6,
		MsgClassifyBatch:     7,
		MsgResultBatch:       8,
		MsgClassifyFeatBatch: 9,
		MsgShed:              10,
		MsgHello:             11,
		MsgRelayRoute:        13,
	}
	for ty, v := range want {
		if uint8(ty) != v {
			t.Fatalf("%s has wire value %d, want %d", ty, uint8(ty), v)
		}
	}
	// 12 was the static relay frame: retired, never reused.
	if got := MsgType(12).String(); got != "msgtype(12)" {
		t.Fatalf("retired wire value 12 reused as %q", got)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		MsgClassifyRaw:       "classify-raw",
		MsgClassifyFeat:      "classify-features",
		MsgResult:            "result",
		MsgError:             "error",
		MsgPing:              "ping",
		MsgPong:              "pong",
		MsgClassifyBatch:     "classify-batch",
		MsgResultBatch:       "result-batch",
		MsgClassifyFeatBatch: "classify-features-batch",
		MsgShed:              "shed",
		MsgHello:             "hello",
		MsgRelayRoute:        "relay-routed",
		MsgType(99):          "msgtype(99)",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Fatalf("MsgType(%d).String() = %q, want %q", ty, got, want)
		}
	}
}

// TestFrameTypesCoverDeclaredTypes reads the MsgType const block from the
// source and fails when a declared type has no String() name or is missing
// from the fuzz corpus list frameTypes. Blank specs are retired wire values
// (12, the static relay frame) and are exempt.
func TestFrameTypesCoverDeclaredTypes(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "protocol.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[MsgType]bool, len(frameTypes))
	for _, ty := range frameTypes {
		listed[ty] = true
	}
	declared := 0
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
			continue
		}
		first := gd.Specs[0].(*ast.ValueSpec)
		if id, ok := first.Type.(*ast.Ident); !ok || id.Name != "MsgType" {
			continue
		}
		// Values are positional (iota + 1), so spec i declares wire value i+1.
		if len(first.Values) != 1 || types.ExprString(first.Values[0]) != "iota + 1" {
			t.Fatalf("MsgType block no longer starts at iota + 1: update this test")
		}
		for i, spec := range gd.Specs {
			name := spec.(*ast.ValueSpec).Names[0].Name
			ty := MsgType(i + 1)
			if name == "_" {
				continue
			}
			declared++
			if got := ty.String(); got == fmt.Sprintf("msgtype(%d)", i+1) {
				t.Errorf("%s (wire value %d) has no String() name", name, i+1)
			}
			if !listed[ty] {
				t.Errorf("%s (wire value %d) is missing from frameTypes", name, i+1)
			}
		}
	}
	if declared == 0 || declared != len(frameTypes) {
		t.Fatalf("found %d declared message types, frameTypes lists %d", declared, len(frameTypes))
	}
}

// countingWriter counts Write calls — the contract under test is that one
// frame costs exactly ONE write, because shaped links (netsim) charge their
// one-way latency per write: a header+payload frame written as two calls
// would pay the link latency twice per frame.
type countingWriter struct {
	writes int
	bytes  int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

func TestWriteFrameSingleWrite(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), make([]byte, 4096)} {
		w := &countingWriter{}
		if err := WriteFrame(w, Frame{Type: MsgClassifyRaw, ID: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("payload len %d: frame cost %d Write calls, want exactly 1 (latency per write!)",
				len(payload), w.writes)
		}
		if w.bytes != FrameWireSize(len(payload)) {
			t.Fatalf("payload len %d: wrote %d bytes, want FrameWireSize = %d",
				len(payload), w.bytes, FrameWireSize(len(payload)))
		}
	}
}

func TestFrameWireSize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgPing, ID: 9, Payload: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != FrameWireSize(3) {
		t.Fatalf("frame with 3-byte payload serialized to %d bytes, FrameWireSize says %d",
			buf.Len(), FrameWireSize(3))
	}
}

func TestResultLoadStatusRoundTrip(t *testing.T) {
	st := LoadStatus{QueueDepth: 7, Active: 3}

	// Single result, with status.
	b := EncodeResultLoad(-2, 0.75, st)
	pred, conf, got, hasLoad, err := DecodeResultLoad(b)
	if err != nil {
		t.Fatal(err)
	}
	if pred != -2 || conf != 0.75 || !hasLoad || got != st {
		t.Fatalf("decoded %d/%v/%+v (hasLoad %v)", pred, conf, got, hasLoad)
	}
	// Legacy single result: decodes with hasLoad == false.
	pred, conf, got, hasLoad, err = DecodeResultLoad(EncodeResult(5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if pred != 5 || conf != 0.5 || hasLoad || got != (LoadStatus{}) {
		t.Fatalf("legacy decode: %d/%v/%+v (hasLoad %v)", pred, conf, got, hasLoad)
	}
	// The strict legacy decoder must keep rejecting extended payloads (old
	// edges talking to new servers go through DecodeResultLoad).
	if _, _, err := DecodeResult(b); err == nil {
		t.Fatal("strict DecodeResult accepted a status-extended payload")
	}

	// Result batch, with status, including the ambiguity edge: a status
	// batch of n results is as long as a legacy batch of n+1 — the count
	// field must disambiguate.
	for _, rs := range [][]Result{nil, {{Pred: 1, Conf: 0.25}}, {{Pred: 3, Conf: 1}, {Pred: -1, Conf: 0}}} {
		b := EncodeResultsLoad(rs, st)
		got, gotSt, hasLoad, err := DecodeResultsLoad(b)
		if err != nil {
			t.Fatal(err)
		}
		if !hasLoad || gotSt != st || len(got) != len(rs) {
			t.Fatalf("batch of %d: got %d results, status %+v (hasLoad %v)", len(rs), len(got), gotSt, hasLoad)
		}
		for i := range rs {
			if got[i] != rs[i] {
				t.Fatalf("result %d: %+v != %+v", i, got[i], rs[i])
			}
		}
		legacy, _, hasLoad, err := DecodeResultsLoad(EncodeResults(rs))
		if err != nil {
			t.Fatal(err)
		}
		if hasLoad || len(legacy) != len(rs) {
			t.Fatalf("legacy batch of %d: %d results, hasLoad %v", len(rs), len(legacy), hasLoad)
		}
	}
}

func TestShedRoundTrip(t *testing.T) {
	st := LoadStatus{QueueDepth: 12, Active: 4}
	b := EncodeShed(75*time.Millisecond, st)
	retryAfter, got, hasLoad, err := DecodeShed(b)
	if err != nil {
		t.Fatal(err)
	}
	if retryAfter != 75*time.Millisecond || !hasLoad || got != st {
		t.Fatalf("decoded %v/%+v (hasLoad %v)", retryAfter, got, hasLoad)
	}

	// Legacy base payload (no trailing status): decodes with hasLoad false.
	legacy := make([]byte, 8)
	binary.LittleEndian.PutUint64(legacy, uint64(50*time.Millisecond))
	retryAfter, got, hasLoad, err = DecodeShed(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if retryAfter != 50*time.Millisecond || hasLoad || got != (LoadStatus{}) {
		t.Fatalf("legacy decode: %v/%+v (hasLoad %v)", retryAfter, got, hasLoad)
	}

	// Any other length is rejected.
	for _, n := range []int{0, 1, 7, 9, 15, 17, 32} {
		if _, _, _, err := DecodeShed(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte shed payload accepted", n)
		}
	}
}

// TestActivationRoundTrip: the activation body of a relay frame survives
// the routed payload bitwise, for NCHW batches and for the rank-2
// [batch, features] activations of cuts past the flattening layers.
func TestActivationRoundTrip(t *testing.T) {
	for _, in := range []*tensor.Tensor{
		tensor.FromSlice([]float32{1, -2, 3.5, 0, 7, -0.25, 9, 11}, 2, 1, 2, 2),
		tensor.FromSlice([]float32{1, -2, 3.5, 0, 7, -0.25}, 2, 3),
	} {
		payload, err := EncodeRoutedActivation(5, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		_, _, out, err := DecodeRoutedActivation(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !out.SameShape(in) {
			t.Fatalf("shape %v became %v", in.Shape(), out.Shape())
		}
		for i, v := range out.Data() {
			if v != in.Data()[i] {
				t.Fatalf("element %d: %v became %v", i, in.Data()[i], v)
			}
		}
	}
}

// TestDecodeActivationRejectsGarbage: a truncated route header, or garbage
// after a valid route, is rejected — a bad tensor body never reads as a probe.
func TestDecodeActivationRejectsGarbage(t *testing.T) {
	good, err := EncodeRoutedActivation(2, []int{4}, tensor.FromSlice([]float32{1, 2}, 1, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	route, body := good[:5], good[5:]
	cases := [][]byte{
		nil,      // no header at all
		{7},      // truncated position
		{7, 0},   // no boundary count
		good[:4], // truncated boundary list
	}
	for _, garbage := range [][]byte{
		{4},                                  // rank with no dims
		{0xff},                               // absurd rank
		body[:len(body)-1],                   // truncated tensor
		append(append([]byte{}, body...), 0), // trailing byte
	} {
		cases = append(cases, append(append([]byte{}, route...), garbage...))
	}
	for i, c := range cases {
		if _, _, _, err := DecodeRoutedActivation(c); err == nil {
			t.Fatalf("case %d (%d bytes) accepted", i, len(c))
		}
	}
}

// TestRelayProbeRoundTrip: a probe is a routed payload with no tensor body;
// it must decode to a nil tensor with its route intact, and a real
// activation payload must never read as a probe (or vice versa).
func TestRelayProbeRoundTrip(t *testing.T) {
	for _, bounds := range [][]int{nil, {4}, {4, 9}} {
		p, err := EncodeRoutedActivation(2, bounds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !IsRoutedProbe(p) {
			t.Fatalf("probe payload of %d bytes not recognised", len(p))
		}
		pos, got, act, err := DecodeRoutedActivation(p)
		if err != nil || act != nil || pos != 2 || len(got) != len(bounds) {
			t.Fatalf("probe route %v round-tripped to pos %d bounds %v tensor %v, %v", bounds, pos, got, act, err)
		}
	}
	act, err := EncodeRoutedActivation(2, []int{4}, tensor.FromSlice([]float32{1, 2}, 1, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if IsRoutedProbe(act) {
		t.Fatalf("activation payload misread as probe")
	}
	if IsRoutedProbe(nil) || IsRoutedProbe([]byte{0, 0}) {
		t.Fatalf("truncated header misread as probe")
	}
}

func TestRoutedActivationRoundTrip(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, 1, 2, 3)
	enc, err := EncodeRoutedActivation(2, []int{5, 8}, in)
	if err != nil {
		t.Fatal(err)
	}
	pos, bounds, out, err := DecodeRoutedActivation(enc)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 2 || len(bounds) != 2 || bounds[0] != 5 || bounds[1] != 8 {
		t.Fatalf("route mutated: pos=%d bounds=%v", pos, bounds)
	}
	if !out.SameShape(in) {
		t.Fatalf("shape %v became %v", in.Shape(), out.Shape())
	}
	// Terminal frame: no boundaries left.
	enc, err = EncodeRoutedActivation(7, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if pos, bounds, _, err = DecodeRoutedActivation(enc); err != nil || pos != 7 || len(bounds) != 0 {
		t.Fatalf("terminal route: pos=%d bounds=%v err=%v", pos, bounds, err)
	}
}

func TestRoutedActivationRejectsBadRoutes(t *testing.T) {
	in := tensor.FromSlice([]float32{1}, 1, 1, 1, 1)
	if _, err := EncodeRoutedActivation(3, []int{3}, in); err == nil {
		t.Fatalf("boundary == position accepted")
	}
	if _, err := EncodeRoutedActivation(3, []int{5, 4}, in); err == nil {
		t.Fatalf("non-increasing boundaries accepted")
	}
	if _, err := EncodeRoutedActivation(-1, nil, in); err == nil {
		t.Fatalf("negative position accepted")
	}
	good, err := EncodeRoutedActivation(2, []int{4}, in)
	if err != nil {
		t.Fatal(err)
	}
	// Decoder must apply the same validation.
	bad := append([]byte{}, good...)
	binary.LittleEndian.PutUint16(bad, 4) // pos == bounds[0]
	if _, _, _, err := DecodeRoutedActivation(bad); err == nil {
		t.Fatalf("decoder accepted boundary == position")
	}
	if _, _, _, err := DecodeRoutedActivation(good[:2]); err == nil {
		t.Fatalf("decoder accepted truncated header")
	}
	trunc := append([]byte{}, good...)
	trunc[2] = 9 // claims 9 boundaries, carries 1
	if _, _, _, err := DecodeRoutedActivation(trunc); err == nil {
		t.Fatalf("decoder accepted truncated boundary list")
	}
}

func TestResultsChainRoundTrip(t *testing.T) {
	rs := []Result{{Pred: 3, Conf: 0.5}, {Pred: 1, Conf: 0.25}}
	st := LoadStatus{QueueDepth: 4, Active: 2}
	hops := []StageStatus{
		{ServiceNanos: 1_500_000, DownMbps: 93.5, DownRTTNanos: 2_000_000},
		{ServiceNanos: 800_000}, // terminal hop: no downstream link
	}
	enc := EncodeResultsChain(rs, st, hops)
	gotRS, gotST, hasLoad, gotHops, hasChain, err := DecodeResultsChain(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !hasLoad || !hasChain {
		t.Fatalf("hasLoad=%v hasChain=%v, want both", hasLoad, hasChain)
	}
	if len(gotRS) != len(rs) || gotRS[0] != rs[0] || gotRS[1] != rs[1] {
		t.Fatalf("results mutated: %+v", gotRS)
	}
	if gotST != st {
		t.Fatalf("load status %+v became %+v", st, gotST)
	}
	if len(gotHops) != 2 || gotHops[0] != hops[0] || gotHops[1] != hops[1] {
		t.Fatalf("hop statuses mutated: %+v", gotHops)
	}
}

// TestResultsChainLegacyCompat pins the three-layout disambiguation: the
// chain decoder must accept both legacy layouts unchanged, and the legacy
// decoders must never misparse a chain payload as a longer result batch.
func TestResultsChainLegacyCompat(t *testing.T) {
	rs := []Result{{Pred: 7, Conf: 1}}
	st := LoadStatus{QueueDepth: 9}

	gotRS, _, hasLoad, _, hasChain, err := DecodeResultsChain(EncodeResults(rs))
	if err != nil || hasLoad || hasChain || len(gotRS) != 1 {
		t.Fatalf("bare results: hasLoad=%v hasChain=%v err=%v", hasLoad, hasChain, err)
	}
	gotRS, gotST, hasLoad, _, hasChain, err := DecodeResultsChain(EncodeResultsLoad(rs, st))
	if err != nil || !hasLoad || hasChain || gotST != st || len(gotRS) != 1 {
		t.Fatalf("results+load: hasLoad=%v hasChain=%v st=%+v err=%v", hasLoad, hasChain, gotST, err)
	}
	// A chain payload fed to the load-only decoder must error, not misparse:
	// its length is ≡1 (mod 4) while both legacy layouts are multiples of 4.
	chain := EncodeResultsChain(rs, st, []StageStatus{{ServiceNanos: 1}})
	if _, _, _, err := DecodeResultsLoad(chain); err == nil {
		t.Fatalf("legacy decoder accepted a chain payload")
	}
	// Empty hop vector still round-trips as an explicit (empty) chain section.
	_, _, hasLoad, gotHops, hasChain, err := DecodeResultsChain(EncodeResultsChain(rs, st, nil))
	if err != nil || !hasLoad || !hasChain || len(gotHops) != 0 {
		t.Fatalf("empty chain section: hasLoad=%v hasChain=%v hops=%v err=%v", hasLoad, hasChain, gotHops, err)
	}
}
