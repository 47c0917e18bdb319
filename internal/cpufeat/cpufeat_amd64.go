package cpufeat

// AVX is set when CPUID leaf 1 reports AVX and OSXSAVE and XCR0 has the XMM
// and YMM state enabled: an OS that does not save the upper halves of the YMM
// registers across context switches makes them unusable. AVX2 additionally
// needs CPUID leaf 7's AVX2 bit (EBX bit 5).
var AVX, AVX2 = probe()

func probe() (avx, avx2 bool) {
	const osxsave, avxBit = 1 << 27, 1 << 28
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avxBit) != osxsave|avxBit {
		return false, false
	}
	const xmmYmmState = 0b110
	if eax, _ := xgetbv(); eax&xmmYmmState != xmmYmmState {
		return false, false
	}
	if maxLeaf < 7 {
		return true, false
	}
	const avx2Bit = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return true, ebx&avx2Bit != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
