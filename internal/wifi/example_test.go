package wifi_test

import (
	"fmt"
	"log"

	"hideseek/internal/wifi"
)

// Example builds and decodes a complete 802.11g PPDU at 54 Mb/s.
func Example() {
	psdu := []byte("hello wifi")
	frame, err := wifi.BuildFrame(psdu, wifi.Rate54, 0x5D)
	if err != nil {
		log.Fatal(err)
	}
	got, sig, err := wifi.DecodeFrame(frame)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rate %d Mb/s, %d-byte PSDU: %q\n", int(sig.Rate), sig.Length, got)
	// Output:
	// rate 54 Mb/s, 10-byte PSDU: "hello wifi"
}

// ExampleConvEncode encodes bits at rate 1/2 and decodes them back.
func ExampleConvEncode() {
	data := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	coded := wifi.ConvEncode(data)
	back, err := wifi.ViterbiDecode(coded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(coded), back)
	// Output:
	// 16 [1 0 1 1 0 0 1 0]
}
