package machine

import "testing"

// FuzzMachineOps decodes its input as (op, arg) byte pairs and runs them
// through runOps, the same interpreter the incremental-equivalence property
// test uses: any sequence of queue operations must keep the incremental
// machine bitwise-equal to the full-recompute reference. A second run checks
// the Version contract after every operation (versionCheck).
func FuzzMachineOps(f *testing.F) {
	const maxOps = 96
	for _, seed := range [][]byte{
		{byte(opEnqueue), 3, byte(opEnqueue), 40, byte(opStart), 0, byte(opExpire), 7},
		{byte(opEnqueue), 0, byte(opEnqueue), 16, byte(opEnqueue), 5, byte(opStart), 0,
			byte(opAdvance), 12, byte(opExpire), 3, byte(opObserve), 9},
		{byte(opEnqueue), 1, byte(opDefer), 77, byte(opAdvance), 5, byte(opDrop), 0x5a,
			byte(opRefresh), 0, byte(opComplete), 0, byte(opExpire), 8},
		{byte(opEnqueue), 2, byte(opStart), 0, byte(opSwapPET), 1, byte(opFail), 0,
			byte(opJoin), 0, byte(opEnqueue), 9, byte(opExpire), 200},
		// Two expiries whose lazy repairs compose: the second sweep's
		// first drop sits behind the first's.
		{byte(opEnqueue), 55, byte(opEnqueue), 48, byte(opAdvance), 48,
			byte(opEnqueue), 55, byte(opAdvance), 48, byte(opExpire), 48},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/2, maxOps)
		ops, args := make([]opKind, n), make([]uint8, n)
		for i := range ops {
			ops[i] = opKind(data[2*i] % byte(numOpKinds))
			args[i] = data[2*i+1]
		}
		if err := runOps(ops, args); err != nil {
			t.Fatal(err)
		}
		if err := runOpsWith(ops, args, versionCheck()); err != nil {
			t.Fatalf("version contract: %v", err)
		}
	})
}
