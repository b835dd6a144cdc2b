// Package millicode defines the TNS/R emulation runtime that translated
// code executes within: the fixed memory layout of the RISC machine, the
// BREAK/SYSCALL protocol between translated code and the host, and the
// hand-coded RISC assembly "millicode" routines the Accelerator calls for
// complex or long-running TNS instructions — exactly the role the paper
// assigns to millicode. The routines are written in the risc package's
// assembly syntax and assembled on first use.
//
// # Memory layout (RISC data space, byte addresses)
//
//	0x000000 .. 0x01FFFF   the TNS data space: 64K big-endian halfwords;
//	                       TNS word w lives at byte 2w; $db = 0
//	0x020000 .. 0x02003F   the pointer area: addresses of the runtime
//	                       tables, loaded by millicode (see Ptr* constants)
//	0x020040 ..            packed PMaps and EMaps for both code spaces
//
// # Code layout (RISC code space, word indexes)
//
//	0x000000 .. len(milli) the millicode (this package)
//	0x010000 ..            the user codefile's translated code
//	0x080000 ..            the system library codefile's translated code
//
// The code space is additionally visible read-only in the data space at
// backend.CodeWindow (so translated CASE tables can be loaded with LW).
//
// # Register conventions at millicode entry
//
// Millicode may clobber every Accelerator temporary ($t0..$t13), $mt and
// $ra; the translator treats millicode calls as temporary-pool barriers.
// The emulated TNS state ($r0..$r7, $db, $l, $s, $cc, $k, $v, $env) is
// preserved except where the TNS instruction itself changes it. Arguments
// and results use $t0..$t2 (see each routine).
package millicode

import (
	"tnsr/internal/backend"
	"tnsr/internal/risc"
)

// Data-space layout.
const (
	TNSDataBytes = 0x20000 // 64K halfwords

	PtrArea         = 0x020000
	PtrUserPMapBase = PtrArea + backend.PtroUserPMapBase
	PtrUserPMapOff  = PtrArea + backend.PtroUserPMapOff
	PtrLibPMapBase  = PtrArea + backend.PtroLibPMapBase
	PtrLibPMapOff   = PtrArea + backend.PtroLibPMapOff
	PtrUserEMap     = PtrArea + backend.PtroUserEMap
	PtrLibEMap      = PtrArea + backend.PtroLibEMap
	TableArea       = PtrArea + 64 // packed tables start here

	// MemBytes is the data-memory size the runtime image allocates.
	MemBytes = 0x100000
)

// Code-space layout (word indexes).
const (
	MilliBase    = 0
	UserCodeBase = 0x010000
	LibCodeBase  = 0x080000
)

// BREAK codes: how translated code and millicode return control to the
// host (the xrun mixed-mode driver).
const (
	// BreakFallback enters interpreter mode at the TNS word address in
	// $mt, in the code space given by bit 8 of $env — the paper's switch
	// to interpretive execution at puzzle points.
	BreakFallback = 1
	// BreakHalt reports that the initial procedure returned through the
	// halt sentinel.
	BreakHalt = 2
	// BreakTrapBase + tnsTrapCode reports a TNS trap raised by translated
	// code; $mt holds the TNS address of the trapping instruction.
	BreakTrapBase = 16
)

// SYSCALL codes are the TNS SVC numbers (tns.Svc*); arguments are passed in
// $t0 (first) and $t1 (second). The host implements them and resumes.

// Label names exported to the translator.
const (
	LExit = "MILLI_EXIT"
	LXcal = "MILLI_XCAL"
	LScal = "MILLI_SCAL"
	LMovb = "MILLI_MOVB"
	LMovw = "MILLI_MOVW"
	LCmpb = "MILLI_CMPB"
	LScnb = "MILLI_SCNB"
)

// Source is the millicode in risc assembly. It is exported so tools (and
// curious tests) can print it; Build assembles it.
//
// Conventions used below:
//
//	MILLI_EXIT:  $t0 = argument words to cut (k). $env's RP field must
//	             already hold the callee's exit RP. Performs the whole
//	             EXIT: reads the stack marker, cuts S, restores L and the
//	             space bit, then maps the TNS return address to RISC code
//	             via the packed PMap — the lookup the paper costs at 11
//	             R3000 cycles — and jumps there. Falls back to the
//	             interpreter when the return point is not register-exact,
//	             and BreakHalts on the halt sentinel.
//
//	MILLI_XCAL:  $t0 = TNS return address, $t1 = PLabel, $mt = TNS address
//	             of the XCAL instruction (for fallback). Dispatches through
//	             the EMap of the PLabel's code space to the target's
//	             translated prologue, or falls back.
//
//	MILLI_SCAL:  $t0 = TNS return address, $t1 = library PEP index, $mt =
//	             TNS address of the SCAL instruction. Like MILLI_XCAL but
//	             always the library EMap.
//
//	MILLI_MOVB:  $t0 = src byte address, $t1 = dst byte address, $t2 =
//	             count (sign = direction), all zero-extended 16-bit.
//	MILLI_MOVW:  same with word addresses; moves halfwords.
//	MILLI_CMPB:  $t0 = a, $t1 = b, $t2 = count; sets $cc.
//	MILLI_SCNB:  $t0 = address, $t1 = test byte, $t2 = limit; returns the
//	             skip count in $t0 and sets $cc (0 found, 1 not found).
//
// The move/compare/scan routines are jal-linked ($ra); EXIT/XCAL/SCAL are
// entered with j and never return to the caller.
const Source = `
; ---------------------------------------------------------------- EXIT ---
MILLI_EXIT:
  addu  $mt, $db, $l        ; marker: ret at L-2 words, env L-1, oldL L-0
  lhu   $t1, -4($mt)        ; t1 = TNS return address
  lhu   $t2, -2($mt)        ; t2 = saved ENV (space bit source)
  lhu   $t3, 0($mt)         ; t3 = caller L (TNS words)
  sll   $t4, $t0, 1
  addiu $t4, $t4, 6         ; (3+k)*2 bytes
  subu  $s, $l, $t4         ; S = L - 3 - k
  sll   $l, $t3, 1          ; restore L (byte form)
  ; env = (env & ~0x100) | (marker & 0x100): propagate the caller's space
  li    $t5, 0x100
  and   $t6, $t2, $t5
  nor   $t5, $t5, $z
  and   $env, $env, $t5
  or    $env, $env, $t6
  ; halt sentinel?
  li    $t5, 0xFFFF
  beq   $t1, $t5, exit_halt
  ; select the PMap of the caller's space (delay slot harmless)
  andi  $t7, $t2, 0x100
  bne   $t7, $z, exit_lib
  lui   $t10, 2             ; pointer area (delay slot)
  lw    $t8, PTRO_UPMAP_BASE($t10)
  b     exit_look
  lw    $t9, PTRO_UPMAP_OFF($t10)
exit_lib:
  lw    $t8, PTRO_LPMAP_BASE($t10)
  lw    $t9, PTRO_LPMAP_OFF($t10)
exit_look:
  beq   $t8, $z, exit_fall  ; no PMap registered for that space
  nop
  ; the 11-cycle lookup: group base + per-word offset
  srl   $t5, $t1, 3         ; group number
  sll   $t5, $t5, 2
  addu  $t5, $t5, $t8
  lw    $t5, 0($t5)         ; anchor: RISC byte address of the group
  addu  $t6, $t1, $t9
  lbu   $t6, 0($t6)         ; per-word offset (RISC words)
  li    $t7, 0xFF
  beq   $t6, $t7, exit_fall
  sll   $t6, $t6, 2
  addu  $t5, $t5, $t6
  jr    $t5
  nop
exit_fall:
  move  $mt, $t1            ; resume interpretation at the return point
  break 1
exit_halt:
  break 2

; ---------------------------------------------------------------- XCAL ---
MILLI_XCAL:
  lui   $t6, 2              ; pointer area
  andi  $t3, $t1, 0x8000    ; space bit of the PLabel
  bne   $t3, $z, xcal_lib
  andi  $t4, $t1, 0x7FFF    ; PEP index (delay slot)
  b     xcal_go
  lw    $t5, PTRO_UEMAP($t6)
xcal_lib:
  lw    $t5, PTRO_LEMAP($t6)
xcal_go:
  beq   $t5, $z, xcal_fall  ; no EMap for that space at all
  sll   $t4, $t4, 2
  addu  $t5, $t5, $t4
  lw    $t5, 0($t5)         ; entry byte address, or 0
  beq   $t5, $z, xcal_fall
  nop
  ; The call site leaves the PLabel on the architectural stack ($env's RP
  ; still counts it) so a missed dispatch can redo the XCAL exactly; a hit
  ; consumes it here by dropping one RP position before the prologue reads
  ; $env for the stack marker.
  andi  $t3, $env, 7
  addiu $t3, $t3, -1
  andi  $t3, $t3, 7
  andi  $env, $env, 0x1F8
  or    $env, $env, $t3
  jr    $t5                 ; to the translated prologue; $t0 = return addr
  nop
xcal_fall:
  break 1                   ; $mt = address of the XCAL; interpreter redoes it

; ---------------------------------------------------------------- SCAL ---
MILLI_SCAL:
  lui   $t6, 2              ; pointer area
  lw    $t5, PTRO_LEMAP($t6)
  beq   $t5, $z, scal_fall
  sll   $t4, $t1, 2
  addu  $t5, $t5, $t4
  lw    $t5, 0($t5)
  beq   $t5, $z, scal_fall
  nop
  jr    $t5
  nop
scal_fall:
  break 1                   ; $mt = address of the SCAL

; ---------------------------------------------------------------- MOVB ---
; $t0 src bytes, $t1 dst bytes, $t2 signed count; preserves $cc/$k/$v.
MILLI_MOVB:
  sll   $t2, $t2, 16
  sra   $t2, $t2, 16        ; sign-extend the 16-bit count
  beq   $t2, $z, movb_done
  slt   $t3, $t2, $z
  bne   $t3, $z, movb_rev
  nop
movb_fwd:
  addu  $t4, $db, $t0
  lbu   $t4, 0($t4)
  addu  $t5, $db, $t1
  sb    $t4, 0($t5)
  addiu $t0, $t0, 1
  addiu $t1, $t1, 1
  addiu $t2, $t2, -1
  bne   $t2, $z, movb_fwd
  nop
  jr    $ra
  nop
movb_rev:
  subu  $t2, $z, $t2        ; |count|
  addu  $t0, $t0, $t2
  addu  $t1, $t1, $t2
movb_rloop:
  addiu $t0, $t0, -1
  addiu $t1, $t1, -1
  addu  $t4, $db, $t0
  lbu   $t4, 0($t4)
  addu  $t5, $db, $t1
  sb    $t4, 0($t5)
  addiu $t2, $t2, -1
  bne   $t2, $z, movb_rloop
  nop
movb_done:
  jr    $ra
  nop

; ---------------------------------------------------------------- MOVW ---
; $t0 src words, $t1 dst words, $t2 signed count.
MILLI_MOVW:
  sll   $t2, $t2, 16
  sra   $t2, $t2, 16
  beq   $t2, $z, movw_done
  slt   $t3, $t2, $z
  sll   $t0, $t0, 1         ; to byte addresses
  sll   $t1, $t1, 1
  bne   $t3, $z, movw_rev
  nop
movw_fwd:
  addu  $t4, $db, $t0
  lhu   $t4, 0($t4)
  addu  $t5, $db, $t1
  sh    $t4, 0($t5)
  addiu $t0, $t0, 2
  addiu $t1, $t1, 2
  addiu $t2, $t2, -1
  bne   $t2, $z, movw_fwd
  nop
  jr    $ra
  nop
movw_rev:
  subu  $t2, $z, $t2
  sll   $t6, $t2, 1
  addu  $t0, $t0, $t6
  addu  $t1, $t1, $t6
movw_rloop:
  addiu $t0, $t0, -2
  addiu $t1, $t1, -2
  addu  $t4, $db, $t0
  lhu   $t4, 0($t4)
  addu  $t5, $db, $t1
  sh    $t4, 0($t5)
  addiu $t2, $t2, -1
  bne   $t2, $z, movw_rloop
  nop
movw_done:
  jr    $ra
  nop

; ---------------------------------------------------------------- CMPB ---
; $t0 a bytes, $t1 b bytes, $t2 count; sets $cc to -1/0/1.
MILLI_CMPB:
  move  $cc, $z
cmpb_loop:
  beq   $t2, $z, cmpb_done
  nop
  addu  $t4, $db, $t0
  lbu   $t4, 0($t4)
  addu  $t5, $db, $t1
  lbu   $t5, 0($t5)
  bne   $t4, $t5, cmpb_diff
  addiu $t2, $t2, -1
  addiu $t0, $t0, 1
  b     cmpb_loop
  addiu $t1, $t1, 1
cmpb_diff:
  subu  $cc, $t4, $t5       ; sign carries the relation
cmpb_done:
  jr    $ra
  nop

; ---------------------------------------------------------------- SCNB ---
; $t0 address, $t1 test byte, $t2 limit; returns skip count in $t0,
; $cc = 0 if found else 1.
MILLI_SCNB:
  move  $t3, $z             ; skipped so far
scnb_loop:
  beq   $t3, $t2, scnb_miss
  nop
  addu  $t4, $db, $t0
  addu  $t4, $t4, $t3
  lbu   $t4, 0($t4)
  beq   $t4, $t1, scnb_hit
  nop
  b     scnb_loop
  addiu $t3, $t3, 1
scnb_hit:
  move  $t0, $t3
  move  $cc, $z
  jr    $ra
  nop
scnb_miss:
  move  $t0, $t2
  jr    $ra
  ori   $cc, $z, 1
`

// Build assembles the millicode (memoized; see backend.Millicode.Build)
// and returns its code words plus the label map.
func Build() ([]uint32, map[string]uint32) { return lib.Build() }

var lib = backend.Millicode{Source: Source, Encode: risc.EncodeLine}
