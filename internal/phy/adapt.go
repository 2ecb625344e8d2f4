package phy

import "fmt"

// NativeReceiver is the method set a protocol package's own receiver
// (R, returning receptions of type Rec) must have for Adapt to present it
// as a Receiver.
type NativeReceiver[R, Rec any] interface {
	Clone() R
	SyncThreshold() float64
	CloneWithSyncThreshold(t float64) (R, error)
	SyncRefSamples() int
	ResumeSync(at int64)
	SynchronizeFirst(waveform []complex128) (start int, peak float64, err error)
	FrameSpan(waveform []complex128, start int) (int, error)
	DecodeAt(waveform []complex128, start int, syncPeak float64) (Rec, error)
}

// NativeDetector is the method set a protocol package's own detector D
// must have for Adapt to present it as a DetectTuner.
type NativeDetector[D any] interface {
	Threshold() float64
	CloneWithThreshold(t float64) (D, error)
}

// Native describes what of a protocol Adapt cannot learn from the native
// receiver and detector: its fixed sample spans, where a reception keeps
// its payload, and how a detector's verdict maps to a Detection.
type Native[Rec, D any] struct {
	// Protocol is the registry name.
	Protocol string
	// HeaderSamples, MaxFrameSamples and TailSamples are the receiver's
	// spans (see Receiver).
	HeaderSamples, MaxFrameSamples, TailSamples int
	// Payload returns a reception's decoded MAC-layer payload.
	Payload func(Rec) []byte
	// Detect runs the detector on one of the receiver's receptions.
	Detect func(D, Rec) (Detection, error)
}

// Adapt wraps a protocol's native receiver and detector as a Pipeline.
// The detector is a DetectTuner. The receiver wrapper caches the
// Reception it hands out, so DecodeAt adds no allocation to the native
// decode, and a detector refuses any reception but its own protocol's.
func Adapt[R NativeReceiver[R, Rec], Rec any, D NativeDetector[D]](n *Native[Rec, D], rx R, det D) *Pipeline {
	return &Pipeline{
		Protocol: n.Protocol,
		Receiver: &adaptedRx[R, Rec, D]{n: n, rx: rx},
		Detector: adaptedDet[Rec, D]{n: n, det: det},
	}
}

type reception[Rec any] struct {
	rec     Rec
	payload func(Rec) []byte
}

func (r *reception[Rec]) Payload() []byte { return r.payload(r.rec) }

type adaptedRx[R NativeReceiver[R, Rec], Rec, D any] struct {
	n   *Native[Rec, D]
	rx  R
	rec reception[Rec] // cached wrapper returned by DecodeAt
}

func (r *adaptedRx[R, Rec, D]) Clone() Receiver {
	return &adaptedRx[R, Rec, D]{n: r.n, rx: r.rx.Clone()}
}

func (r *adaptedRx[R, Rec, D]) SyncThreshold() float64 { return r.rx.SyncThreshold() }

func (r *adaptedRx[R, Rec, D]) CloneWithSyncThreshold(t float64) (Receiver, error) {
	rx, err := r.rx.CloneWithSyncThreshold(t)
	if err != nil {
		return nil, err
	}
	return &adaptedRx[R, Rec, D]{n: r.n, rx: rx}, nil
}

func (r *adaptedRx[R, Rec, D]) SyncRefSamples() int  { return r.rx.SyncRefSamples() }
func (r *adaptedRx[R, Rec, D]) HeaderSamples() int   { return r.n.HeaderSamples }
func (r *adaptedRx[R, Rec, D]) MaxFrameSamples() int { return r.n.MaxFrameSamples }
func (r *adaptedRx[R, Rec, D]) TailSamples() int     { return r.n.TailSamples }
func (r *adaptedRx[R, Rec, D]) ResumeSync(at int64)  { r.rx.ResumeSync(at) }

func (r *adaptedRx[R, Rec, D]) SynchronizeFirst(w []complex128) (int, float64, error) {
	return r.rx.SynchronizeFirst(w)
}

func (r *adaptedRx[R, Rec, D]) FrameSpan(w []complex128, start int) (int, error) {
	return r.rx.FrameSpan(w, start)
}

// DecodeAt returns the cached wrapper: the Reception is valid until this
// receiver's next DecodeAt/FrameSpan call, like the native one it wraps.
func (r *adaptedRx[R, Rec, D]) DecodeAt(w []complex128, start int, syncPeak float64) (Reception, error) {
	rec, err := r.rx.DecodeAt(w, start, syncPeak)
	if err != nil {
		return nil, err
	}
	r.rec = reception[Rec]{rec: rec, payload: r.n.Payload}
	return &r.rec, nil
}

type adaptedDet[Rec any, D NativeDetector[D]] struct {
	n   *Native[Rec, D]
	det D
}

func (d adaptedDet[Rec, D]) DetectThreshold() float64 { return d.det.Threshold() }

func (d adaptedDet[Rec, D]) CloneWithDetectThreshold(t float64) (Detector, error) {
	det, err := d.det.CloneWithThreshold(t)
	if err != nil {
		return nil, err
	}
	return adaptedDet[Rec, D]{n: d.n, det: det}, nil
}

func (d adaptedDet[Rec, D]) Analyze(rec Reception) (Detection, error) {
	r, ok := rec.(*reception[Rec])
	if !ok {
		return Detection{}, fmt.Errorf("phy: reception type %T is not a %s reception", rec, d.n.Protocol)
	}
	return d.n.Detect(d.det, r.rec)
}
