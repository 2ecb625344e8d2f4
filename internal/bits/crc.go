package bits

// CRC16 computes the IEEE 802.15.4 frame check sequence: CRC-16/CCITT with
// polynomial x^16 + x^12 + x^5 + 1, zero initial value, bit-reflected
// processing, no final XOR (the "KERMIT" variant used by the standard's
// MAC sublayer).
func CRC16(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ 0x8408 // reflected 0x1021
			} else {
				crc >>= 1
			}
		}
	}
	return crc
}
