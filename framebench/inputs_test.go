package main

import (
	"bytes"
	"testing"
)

// TestInputsArePureFunctionsOfSeed regenerates every workload's inputs:
// the same seed must give identical cf32 bytes and labels, another seed
// different ones.
func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	zigbee := func(seed int64) []capture {
		c, err := genZigbeeBlock(seed)
		if err != nil {
			t.Fatal(err)
		}
		return []capture{c}
	}
	lora := func(seed int64) []capture {
		c, err := genLoRaCaptures(seed)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for name, gen := range map[string]func(int64) []capture{"zigbee-stream": zigbee, "lora-classify": lora} {
		a, again, other := gen(7), gen(7), gen(8)
		if inputHash(a, nil) != inputHash(again, nil) {
			t.Errorf("%s: seed 7 gave two different input sets", name)
		}
		for i := range a {
			if !bytes.Equal(a[i].CF32, again[i].CF32) {
				t.Errorf("%s: capture %d bytes differ between two seed-7 runs", name, i)
			}
		}
		if inputHash(a, nil) == inputHash(other, nil) || bytes.Equal(a[0].CF32, other[0].CF32) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
	if inputHash(nil, genAttackInputs(7)) != inputHash(nil, genAttackInputs(7)) {
		t.Error("attack-forge: seed 7 gave two different input sets")
	}
	if inputHash(nil, genAttackInputs(7)) == inputHash(nil, genAttackInputs(8)) {
		t.Error("attack-forge: seeds 7 and 8 gave the same inputs")
	}
}

// TestInputsMatchTheirReference checks that each workload's reference
// pipeline finds exactly the generated frames, which the run relies on.
func TestInputsMatchTheirReference(t *testing.T) {
	if _, err := setupZigbee(3); err != nil {
		t.Fatal(err)
	}
	if _, err := setupLoRa(3); err != nil {
		t.Fatal(err)
	}
}
