package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"testing"
)

// experimentDigest hashes every float of a result bit for bit.
// encoding/json writes each float64 as its shortest round-trip decimal,
// so the JSON bytes pin the bits; Fig. 6 holds complex128, which JSON
// cannot encode, so its floats are hashed as raw IEEE-754 words.
func experimentDigest(t *testing.T, res Renderable) string {
	t.Helper()
	h := sha256.New()
	if f6, ok := res.(*Fig6Result); ok {
		word := func(x float64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		for _, pts := range [][]complex128{f6.AWGNPoints, f6.RealPoints, f6.AWGNCenters, f6.RealCenters} {
			word(float64(len(pts)))
			for _, p := range pts {
				word(real(p))
				word(imag(p))
			}
		}
		word(f6.AWGNSpread)
		word(f6.RealSpread)
	} else {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("encode result: %v", err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExperimentDigests runs every registry experiment at a reduced trial
// count and pins a sha256 of its result floats. make experiments-check
// prints cells at 4 decimals, so a change that moves a D² mean in its
// last bits (a reordered summation, a different trial order) passes the
// golden; it fails here. A refactor of the drivers must leave this table
// unmodified.
//
// The digests were recorded on amd64, where Go never fuses a multiply and
// an add; architectures whose compilers emit FMA produce different bits.
func TestExperimentDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded for amd64 float semantics")
	}
	want := map[string]string{
		"table1":               "806936a4251c8efba590736a261e033d34f0158f773953261bfc9417338fcbce",
		"table2":               "f166ffd2068d8bba4b23b0c06f92d0b7992ebd7e4860af05d7ce227712c0848e",
		"fig5":                 "81ab4ff26363fd47e54267a2680feb283fdaa9d3d9e90ddcbb72aeaeaef27ff6",
		"fig6":                 "2cabdded7f85aa4fe1dda837826bf3e434de6f63a8b30ac3ba0635d67f87c936",
		"fig7":                 "e158bc734bdfc44d81724b81441e37ba11226ec74bf69a95d07ee59ee0ce8ac6",
		"fig8":                 "7437bc0feaf7bedb5219efc506141388fb2d1f421640bbeae2e49d7278875e98",
		"fig9":                 "79dc7ffac0971b5ad94e3fe80cbb259fe6a181d231f8704cdf01fe81be78dccc",
		"fig10":                "8b57afb7fe060a2d3213dde32370e1bbe0f2356e070880f23c834f97b5660144",
		"fig11":                "8b57afb7fe060a2d3213dde32370e1bbe0f2356e070880f23c834f97b5660144",
		"table4":               "4245a1188bbeb2267d3b915c2100a455f18dbef3c7edddc4f0a8a2f52946ece0",
		"fig12":                "8949c9328ea7860085ae14322d70e994102cdbda00f77c6e806568aa817d6201",
		"fig14":                "42ab898cacadd4c835a0165a66b5ca5a44795b0941520adb6616498787157745",
		"table5":               "c47c126969006ac00c93856bf2b7aeb13a503370b5c1085ce7bc7d1306b93574",
		"ablation-subcarriers": "aa75dffb40fa518fa50b435ded86f999919423a3bf3168631ec99be4ecb75223",
		"ablation-alpha":       "16635ac76f9eb16317341fd9a20cfd45df86cfa64a875613fe9cd566fcd66ea0",
		"ablation-source":      "fc66b93d7adc9105e64830d5b29594d3071eb7bc9c18133312b6e41245496637",
		"ablation-samples":     "a7cf3d533ccc9ac49fe90d931f407d22bd5f5e0dd61de7c458a25febadf4951e",
		"ablation-interp":      "0cc9f7df55d00dd2ba37726e3b58d3a33145b275d5378b5085e147a7f49caf27",
		"ablation-coarse":      "17d1f8314f6502e627fdaf3b3a4f64db471cd8845815fefa6e91bc2b084b2b1e",
		"spectrum":             "113ac607b176b81379c08bb48e6e7c09fcba92208b882e5f27f599cfddf72f97",
		"accuracy":             "6f8ee993798a129c198863d6db5bd73ca4d901a2bdbb2465198d38b70d810689",
		"session":              "f26c7a5f3311d1a6087a763ebea30a9882b3cf76fa84bfece48524a426afed23",
		"adaptive":             "030b07d08b1e3b94909833a422a21f249a13ff947b726fb0df4ea0ded6bd36d7",
		"coded":                "8427768c7ad341b83e8298633fb5a9b5e0e06a076b89db854402bdcade936f48",
		"roc":                  "f0d2a7c71bb21728567541f0f90385b61ae74935e71a3e3c0b5fd9816d55cb81",
		"evasion":              "f59dc9481e476a72c4a00a4a1ecbf910e7e425ecdd9ed9a64c191888434c1e62",
		"amc":                  "860a59bb4aae0c89eaf4ae1d17682db024ab8097b6ba3d06ddbcce74d899fb2e",
		"csma":                 "8b8e44d8bc9c42cd2a83ed43445c08fb36efc9b27ecb9a7b0403eba17bdcd15b",
		"lora-fidelity":        "ed830c3810c08d42f12ea30e96359edefeff45a6e5fd4f675b7686a31eec9436",
		"lora-roc":             "b5614fdcf425ae25672bc00a0affb24b5eee6f8f6a921cba099a0ae0cdc2bc17",
		"calib-roc":            "4bdd173bef3cae645df7e9526048401ab48e1155b2535ea65fed7581c31f5071",
	}
	for _, exp := range Registry() {
		t.Run(exp.Name, func(t *testing.T) {
			res, err := exp.Run(Config{Seed: 7, Trials: 12})
			if err != nil {
				t.Fatal(err)
			}
			if got := experimentDigest(t, res); got != want[exp.Name] {
				t.Errorf("digest %s, want %s", got, want[exp.Name])
			}
		})
	}
}
