// Package store persists the pulse library and synthesis cache to
// disk so a restarted process starts warm instead of repaying the full
// QOC bill — the AccQOC amortization argument extended across process
// lifetimes. Records are content-addressed (the filename is derived
// from the payload hash, so concurrent writers of the same entry are
// idempotent), checksummed (a corrupted record is skipped, never
// loaded), and namespaced by a hardware-model + config fingerprint
// (a config change lands in a fresh namespace directory, which is the
// whole invalidation story — see DESIGN.md §12).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
	"epoc/internal/pulse"
)

// Magic opens every record file; a file without it is not a record.
const Magic = "EPOCSTORE"

// CodecVersion is the record format version. Records written by a
// different version are skipped at load (counted corrupt), and the
// version is also folded into the namespace key, so a format change
// never misreads old bytes.
const CodecVersion = 1

// Kind tags what a record holds.
type Kind string

// Record kinds.
const (
	KindPulse Kind = "pulse" // one pulse.Library entry: unitary + optimized pulse
	KindSynth Kind = "synth" // one synth.Cache entry: unitary + synthesized circuit
)

// Decode/validation bounds. They exist so a corrupted or adversarial
// record can never balloon memory or construct an object the rest of
// the pipeline would choke on: decode rejects, load skips, caches stay
// clean.
const (
	maxPayloadBytes = 16 << 20 // one record's JSON payload
	maxDim          = 64       // unitary dimension (6 qubits; blocks are ≤3)
	maxSlots        = 1 << 20  // pulse time slots
	maxControls     = 64       // amplitude channels per slot
	maxOps          = 1 << 16  // gates in a synthesized circuit
	maxLabelLen     = 128      // pulse label length
)

// Record is one decoded store entry.
type Record struct {
	Kind Kind
	U    *linalg.Matrix // the unitary the entry is keyed by (verified on import)

	Pulse *pulse.Pulse // KindPulse

	Circ *circuit.Circuit // KindSynth (nil when the synthesis had no usable circuit)
	Ok   bool             // KindSynth: whether the synthesis reached its threshold
}

// matrixJSON is the wire form of a complex matrix: parallel real and
// imaginary slices, row-major. Only square power-of-two unitaries are
// valid on decode.
type matrixJSON struct {
	Rows int       `json:"rows"`
	Re   []float64 `json:"re"`
	Im   []float64 `json:"im"`
}

type pulsePayload struct {
	U        matrixJSON  `json:"u"`
	Label    string      `json:"label"`
	Duration float64     `json:"duration_ns"`
	Fidelity float64     `json:"fidelity"`
	Slots    int         `json:"slots"`
	Amps     [][]float64 `json:"amps,omitempty"`
}

type opJSON struct {
	Kind   string    `json:"kind"`
	Params []float64 `json:"params,omitempty"`
	Qubits []int     `json:"qubits"`
}

type synthPayload struct {
	U      matrixJSON `json:"u"`
	Qubits int        `json:"qubits"`
	Ops    []opJSON   `json:"ops"`
	Ok     bool       `json:"ok"`
}

func encodeMatrix(u *linalg.Matrix) matrixJSON {
	m := matrixJSON{Rows: u.Rows, Re: make([]float64, len(u.Data)), Im: make([]float64, len(u.Data))}
	for i, v := range u.Data {
		m.Re[i] = real(v)
		m.Im[i] = imag(v)
	}
	return m
}

func decodeMatrix(m matrixJSON) (*linalg.Matrix, error) {
	if m.Rows < 2 || m.Rows > maxDim || m.Rows&(m.Rows-1) != 0 {
		return nil, fmt.Errorf("store: matrix dimension %d not a power of two in [2,%d]", m.Rows, maxDim)
	}
	n := m.Rows * m.Rows
	if len(m.Re) != n || len(m.Im) != n {
		return nil, fmt.Errorf("store: matrix data length %d/%d, want %d", len(m.Re), len(m.Im), n)
	}
	u := linalg.NewMatrix(m.Rows, m.Rows)
	for i := 0; i < n; i++ {
		if !finite(m.Re[i]) || !finite(m.Im[i]) {
			return nil, fmt.Errorf("store: non-finite matrix entry %d", i)
		}
		u.Data[i] = complex(m.Re[i], m.Im[i])
	}
	return u, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// EncodePulseRecord frames one pulse-library entry as a record. The
// returned name is the record's content-addressed filename.
func EncodePulseRecord(u *linalg.Matrix, p *pulse.Pulse) (name string, data []byte, err error) {
	if u == nil || p == nil {
		return "", nil, fmt.Errorf("store: nil pulse entry")
	}
	if u.Rows != u.Cols || u.Rows > maxDim {
		return "", nil, fmt.Errorf("store: unsupported unitary %dx%d", u.Rows, u.Cols)
	}
	if len(p.Amps) > maxSlots || len(p.Label) > maxLabelLen {
		return "", nil, fmt.Errorf("store: pulse exceeds codec bounds")
	}
	payload, err := json.Marshal(pulsePayload{
		U:        encodeMatrix(u),
		Label:    p.Label,
		Duration: p.Duration,
		Fidelity: p.Fidelity,
		Slots:    p.Slots,
		Amps:     p.Amps,
	})
	if err != nil {
		return "", nil, err
	}
	return frame(KindPulse, payload)
}

// EncodeSynthRecord frames one synthesis-cache entry as a record.
// Circuits carrying explicit-matrix (Unitary) gates are not
// persistable — QSearch output is U3+CX only, so hitting this means
// the caller tried to store something the cache never produces.
func EncodeSynthRecord(u *linalg.Matrix, circ *circuit.Circuit, ok bool) (name string, data []byte, err error) {
	if u == nil {
		return "", nil, fmt.Errorf("store: nil synth entry")
	}
	if u.Rows != u.Cols || u.Rows > maxDim {
		return "", nil, fmt.Errorf("store: unsupported unitary %dx%d", u.Rows, u.Cols)
	}
	p := synthPayload{U: encodeMatrix(u), Ok: ok}
	if circ != nil {
		if circ.Len() > maxOps {
			return "", nil, fmt.Errorf("store: circuit exceeds %d ops", maxOps)
		}
		p.Qubits = circ.NumQubits
		p.Ops = make([]opJSON, 0, circ.Len())
		for _, op := range circ.Ops {
			if _, fixed := gate.Registry[op.G.Kind]; !fixed {
				return "", nil, fmt.Errorf("store: gate %q carries a matrix and is not persistable", op.G.Kind)
			}
			p.Ops = append(p.Ops, opJSON{
				Kind:   string(op.G.Kind),
				Params: op.G.Params,
				Qubits: op.Qubits,
			})
		}
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return "", nil, err
	}
	return frame(KindSynth, payload)
}

// frame wraps a payload in the checksummed header and derives the
// content-addressed filename from the payload hash. Two records with
// identical content frame to identical bytes under identical names, so
// concurrent writers are idempotent.
func frame(kind Kind, payload []byte) (string, []byte, error) {
	if len(payload) > maxPayloadBytes {
		return "", nil, fmt.Errorf("store: payload %d bytes exceeds %d", len(payload), maxPayloadBytes)
	}
	sum := sha256.Sum256(payload)
	hexsum := hex.EncodeToString(sum[:])
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d %s %d %s\n", Magic, CodecVersion, kind, len(payload), hexsum)
	b.Write(payload)
	return fmt.Sprintf("%c-%s.rec", kind[0], hexsum[:32]), b.Bytes(), nil
}

// DecodeRecord parses and validates one record file. Every failure
// mode — truncation, a bit flip anywhere (the checksum covers the
// payload, the header fields gate themselves), a version from another
// build, out-of-bounds dimensions, non-finite floats, gates the
// registry does not know — returns an error; the loader skips such
// files and the in-memory caches never see them.
func DecodeRecord(data []byte) (*Record, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || nl > 160 {
		return nil, fmt.Errorf("store: missing record header")
	}
	fields := bytes.Fields(data[:nl])
	if len(fields) != 5 {
		return nil, fmt.Errorf("store: malformed header (%d fields)", len(fields))
	}
	if string(fields[0]) != Magic {
		return nil, fmt.Errorf("store: bad magic %q", fields[0])
	}
	ver, err := strconv.Atoi(string(fields[1]))
	if err != nil || ver != CodecVersion {
		return nil, fmt.Errorf("store: record version %q, this build reads %d", fields[1], CodecVersion)
	}
	kind := Kind(fields[2])
	if kind != KindPulse && kind != KindSynth {
		return nil, fmt.Errorf("store: unknown record kind %q", fields[2])
	}
	n, err := strconv.Atoi(string(fields[3]))
	if err != nil || n < 0 || n > maxPayloadBytes {
		return nil, fmt.Errorf("store: bad payload length %q", fields[3])
	}
	payload := data[nl+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("store: payload is %d bytes, header says %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(fields[4]) {
		return nil, fmt.Errorf("store: payload checksum mismatch")
	}
	switch kind {
	case KindPulse:
		return decodePulsePayload(payload)
	default:
		return decodeSynthPayload(payload)
	}
}

func decodePulsePayload(payload []byte) (*Record, error) {
	var p pulsePayload
	if err := strictUnmarshal(payload, &p); err != nil {
		return nil, err
	}
	u, err := decodeMatrix(p.U)
	if err != nil {
		return nil, err
	}
	if len(p.Label) > maxLabelLen {
		return nil, fmt.Errorf("store: pulse label too long")
	}
	if !finite(p.Duration) || p.Duration < 0 || p.Duration > 1e12 {
		return nil, fmt.Errorf("store: pulse duration %v out of range", p.Duration)
	}
	if !finite(p.Fidelity) || p.Fidelity < 0 || p.Fidelity > 1.000001 {
		return nil, fmt.Errorf("store: pulse fidelity %v out of range", p.Fidelity)
	}
	if p.Slots < 0 || p.Slots > maxSlots || len(p.Amps) > maxSlots {
		return nil, fmt.Errorf("store: pulse slot count out of range")
	}
	for _, row := range p.Amps {
		if len(row) > maxControls {
			return nil, fmt.Errorf("store: amplitude row exceeds %d controls", maxControls)
		}
		for _, a := range row {
			if !finite(a) {
				return nil, fmt.Errorf("store: non-finite amplitude")
			}
		}
	}
	return &Record{
		Kind: KindPulse,
		U:    u,
		Pulse: &pulse.Pulse{
			Label:    p.Label,
			Duration: p.Duration,
			Fidelity: p.Fidelity,
			Slots:    p.Slots,
			Amps:     p.Amps,
		},
	}, nil
}

func decodeSynthPayload(payload []byte) (*Record, error) {
	var p synthPayload
	if err := strictUnmarshal(payload, &p); err != nil {
		return nil, err
	}
	u, err := decodeMatrix(p.U)
	if err != nil {
		return nil, err
	}
	rec := &Record{Kind: KindSynth, U: u, Ok: p.Ok}
	if p.Qubits == 0 && len(p.Ops) == 0 {
		return rec, nil // a synthesis that produced no circuit
	}
	if p.Qubits < 1 || p.Qubits > 16 {
		return nil, fmt.Errorf("store: circuit width %d out of range", p.Qubits)
	}
	if len(p.Ops) > maxOps {
		return nil, fmt.Errorf("store: circuit exceeds %d ops", maxOps)
	}
	circ := circuit.New(p.Qubits)
	for i, op := range p.Ops {
		spec, fixed := gate.Registry[gate.Kind(op.Kind)]
		if !fixed {
			return nil, fmt.Errorf("store: op %d has unknown gate kind %q", i, op.Kind)
		}
		if len(op.Params) != spec.Params {
			return nil, fmt.Errorf("store: op %d (%s) has %d params, want %d", i, op.Kind, len(op.Params), spec.Params)
		}
		for _, v := range op.Params {
			if !finite(v) {
				return nil, fmt.Errorf("store: op %d has a non-finite param", i)
			}
		}
		if len(op.Qubits) != spec.Qubits {
			return nil, fmt.Errorf("store: op %d (%s) addresses %d qubits, want %d", i, op.Kind, len(op.Qubits), spec.Qubits)
		}
		seen := map[int]bool{}
		for _, q := range op.Qubits {
			if q < 0 || q >= p.Qubits || seen[q] {
				return nil, fmt.Errorf("store: op %d has invalid qubit list %v", i, op.Qubits)
			}
			seen[q] = true
		}
		// Validated against the registry above, so neither constructor
		// can panic here.
		circ.Append(gate.New(gate.Kind(op.Kind), op.Params...), op.Qubits...)
	}
	rec.Circ = circ
	return rec, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing
// garbage, so a record either round-trips exactly or fails loudly.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("store: invalid payload: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("store: trailing data after payload")
	}
	return nil
}
