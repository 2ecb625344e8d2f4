package emulation

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"hideseek/internal/lora"
	"hideseek/internal/wifi"
)

// emulateDigest hashes the exact float bits of every Result field the
// attack computes, in a fixed order, so any change to a single output bit
// changes the digest.
func emulateDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	f := func(x float64) { word(math.Float64bits(x)) }
	samples := func(xs []complex128) {
		word(uint64(len(xs)))
		for _, v := range xs {
			f(real(v))
			f(imag(v))
		}
	}
	samples(res.Emulated20M)
	samples(res.Emulated4M)
	samples(res.Observed20M)
	word(uint64(len(res.Bins)))
	for _, k := range res.Bins {
		word(uint64(k))
	}
	word(uint64(len(res.Alphas)))
	for _, a := range res.Alphas {
		f(a)
	}
	f(res.QuantError)
	word(uint64(len(res.QAMPoints)))
	for _, seg := range res.QAMPoints {
		samples(seg)
	}
	word(uint64(res.NumSegments))
	return hex.EncodeToString(h.Sum(nil))
}

// digestPSDU is a deterministic n-byte PSDU.
func digestPSDU(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(37*i + 11)
	}
	return p
}

// TestEmulateDigests pins Emulate's output bit for bit across victims,
// frame lengths and attack configurations. The digests were recorded
// before the quantizer and resampler fast paths landed; those paths must
// reproduce every float exactly, so this table must never need updating
// for a pure performance change.
//
// The digests were recorded on amd64, where Go never fuses a multiply and
// an add; architectures whose compilers emit FMA produce different bits.
func TestEmulateDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded for amd64 float semantics")
	}
	loraWave, err := lora.NewTransmitter().TransmitPayload([]byte("wi-lo digest"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  AttackConfig
		obs  func(t *testing.T) []complex128
		want string
	}{
		{"zigbee-5B", AttackConfig{}, func(t *testing.T) []complex128 { return observeFrame(t, digestPSDU(5)) },
			"0fda4508df6fb69e88affe2d9492165a7c4a71b9987c19ac0be06534c3e82870"},
		{"zigbee-20B", AttackConfig{}, func(t *testing.T) []complex128 { return observeFrame(t, digestPSDU(20)) },
			"41119881956eb2f3287fd145cbcf3511a5c426a5a98830df1220c4c8353ee9dd"},
		{"zigbee-65B", AttackConfig{}, func(t *testing.T) []complex128 { return observeFrame(t, digestPSDU(65)) },
			"21ac61134644c630a68c9e950e7b6c5a8fc7d1f4eed8ca22227b50c33955f1fd"},
		{"wilo", AttackConfig{}, func(*testing.T) []complex128 { return loraWave },
			"37ec5cf1a5be962f651d1da692b167a833f68fce63ff1f92f61781d108782e09"},
		{"zigbee-20B-per-segment-alpha", AttackConfig{PerSegmentAlpha: true}, func(t *testing.T) []complex128 { return observeFrame(t, digestPSDU(20)) },
			"75d3eab8f7d52fdba0d625d9234b62dfe31a0976e65357b16b276c8913bda004"},
		{"zigbee-20B-skip-quantization", AttackConfig{SkipQuantization: true}, func(t *testing.T) []complex128 { return observeFrame(t, digestPSDU(20)) },
			"bf24b4021a6f4d7343f77743db6081416db17589254c2bcd5b1a92031869a559"},
		{"zigbee-20B-qam16", AttackConfig{QAMOrder: wifi.QAM16}, func(t *testing.T) []complex128 { return observeFrame(t, digestPSDU(20)) },
			"b8ce11d4ba3c8ae6bca006930721b1a2fffc4985e97b6923e89a182ad5e55655"},
		{"zigbee-20B-fixed-bins", AttackConfig{SubcarrierIndices: []int{62, 63, 0, 1, 2}}, func(t *testing.T) []complex128 { return observeFrame(t, digestPSDU(20)) },
			"fd6ae57e9be9b1e0ebe2bbae5d2a40b47a828a966c8e919ba45bf5d63b04ee39"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			em, err := NewEmulator(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := em.Emulate(tc.obs(t))
			if err != nil {
				t.Fatal(err)
			}
			if got := emulateDigest(res); got != tc.want {
				t.Errorf("digest %s, want %s (%d segments, α[0]=%v, quant err %v)",
					got, tc.want, res.NumSegments, res.Alphas[0], res.QuantError)
			}
		})
	}
}
