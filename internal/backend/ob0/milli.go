package ob0

import "tnsr/internal/backend"

// MilliSource is the ob0 port of the TNS/R millicode. The runtime contract
// — memory layout, pointer area, BREAK/SYSCALL protocol, entry register
// conventions and label names — is the millicode package's and is
// identical across backends; only the instruction sequences differ. The
// port is systematic:
//
//   - MIPS delay slots disappear. Slot instructions needed on both paths
//     of a branch (the pointer-area mvhi in EXIT, the PEP mask in XCAL)
//     are hoisted above it; slot instructions belonging to the taken path
//     (the PMap/EMap loads before "b") move before the jump; dead-slot
//     fillers are simply dropped.
//   - MIPS compare-and-branch becomes cmp/cmpi + a flag branch. A cmp can
//     serve several branches because only cmp/cmpi write flags (see the
//     beq/blt pair after the one cmpi in MOVB).
//   - lui becomes mvhi; non-trapping addu/subu become ob0's plain
//     add/sub; loads and stores get ob0 mnemonics.
const MilliSource = `
; ---------------------------------------------------------------- EXIT ---
MILLI_EXIT:
  add   $mt, $db, $l        ; marker: ret at L-2 words, env L-1, oldL L-0
  ldhu  $t1, -4($mt)        ; t1 = TNS return address
  ldhu  $t2, -2($mt)        ; t2 = saved ENV (space bit source)
  ldhu  $t3, 0($mt)         ; t3 = caller L (TNS words)
  lsli  $t4, $t0, 1
  addi  $t4, $t4, 6         ; (3+k)*2 bytes
  sub   $s, $l, $t4         ; S = L - 3 - k
  lsli  $l, $t3, 1          ; restore L (byte form)
  ; env = (env & ~0x100) | (marker & 0x100): propagate the caller's space
  li    $t5, 0x100
  and   $t6, $t2, $t5
  nor   $t5, $t5, $z
  and   $env, $env, $t5
  ior   $env, $env, $t6
  ; halt sentinel?
  li    $t5, 0xFFFF
  cmp   $t1, $t5
  beq   exit_halt
  ; select the PMap of the caller's space
  mvhi  $t10, 2             ; pointer area (hoisted from the MIPS slot)
  andi  $t7, $t2, 0x100
  cmp   $t7, $z
  bne   exit_lib
  ldw   $t8, PTRO_UPMAP_BASE($t10)
  ldw   $t9, PTRO_UPMAP_OFF($t10)
  b     exit_look
exit_lib:
  ldw   $t8, PTRO_LPMAP_BASE($t10)
  ldw   $t9, PTRO_LPMAP_OFF($t10)
exit_look:
  cmp   $t8, $z
  beq   exit_fall           ; no PMap registered for that space
  ; the packed-PMap lookup: group base + per-word offset
  lsri  $t5, $t1, 3         ; group number
  lsli  $t5, $t5, 2
  add   $t5, $t5, $t8
  ldw   $t5, 0($t5)         ; anchor: RISC byte address of the group
  add   $t6, $t1, $t9
  ldbu  $t6, 0($t6)         ; per-word offset (RISC words)
  cmp   $t6, 0xFF
  beq   exit_fall
  lsli  $t6, $t6, 2
  add   $t5, $t5, $t6
  jr    $t5
exit_fall:
  move  $mt, $t1            ; resume interpretation at the return point
  brk   1
exit_halt:
  brk   2

; ---------------------------------------------------------------- XCAL ---
MILLI_XCAL:
  mvhi  $t6, 2              ; pointer area
  andi  $t3, $t1, 0x8000    ; space bit of the PLabel
  andi  $t4, $t1, 0x7FFF    ; PEP index (both arms need it)
  cmp   $t3, $z
  bne   xcal_lib
  ldw   $t5, PTRO_UEMAP($t6)
  b     xcal_go
xcal_lib:
  ldw   $t5, PTRO_LEMAP($t6)
xcal_go:
  cmp   $t5, $z
  beq   xcal_fall           ; no EMap for that space at all
  lsli  $t4, $t4, 2
  add   $t5, $t5, $t4
  ldw   $t5, 0($t5)         ; entry byte address, or 0
  cmp   $t5, $z
  beq   xcal_fall
  ; The call site leaves the PLabel on the architectural stack ($env's RP
  ; still counts it) so a missed dispatch can redo the XCAL exactly; a hit
  ; consumes it here by dropping one RP position before the prologue reads
  ; $env for the stack marker.
  andi  $t3, $env, 7
  addi  $t3, $t3, -1
  andi  $t3, $t3, 7
  andi  $env, $env, 0x1F8
  ior   $env, $env, $t3
  jr    $t5                 ; to the translated prologue; $t0 = return addr
xcal_fall:
  brk   1                   ; $mt = address of the XCAL; interpreter redoes it

; ---------------------------------------------------------------- SCAL ---
MILLI_SCAL:
  mvhi  $t6, 2              ; pointer area
  ldw   $t5, PTRO_LEMAP($t6)
  cmp   $t5, $z
  beq   scal_fall
  lsli  $t4, $t1, 2
  add   $t5, $t5, $t4
  ldw   $t5, 0($t5)
  cmp   $t5, $z
  beq   scal_fall
  jr    $t5
scal_fall:
  brk   1                   ; $mt = address of the SCAL

; ---------------------------------------------------------------- MOVB ---
; $t0 src bytes, $t1 dst bytes, $t2 signed count; preserves $cc/$k/$v.
MILLI_MOVB:
  lsli  $t2, $t2, 16
  asri  $t2, $t2, 16        ; sign-extend the 16-bit count
  cmp   $t2, $z
  beq   movb_done
  blt   movb_rev            ; flags survive the beq: one cmp, two branches
movb_fwd:
  add   $t4, $db, $t0
  ldbu  $t4, 0($t4)
  add   $t5, $db, $t1
  stb   $t4, 0($t5)
  addi  $t0, $t0, 1
  addi  $t1, $t1, 1
  addi  $t2, $t2, -1
  cmp   $t2, $z
  bne   movb_fwd
  jr    $ra
movb_rev:
  sub   $t2, $z, $t2        ; |count|
  add   $t0, $t0, $t2
  add   $t1, $t1, $t2
movb_rloop:
  addi  $t0, $t0, -1
  addi  $t1, $t1, -1
  add   $t4, $db, $t0
  ldbu  $t4, 0($t4)
  add   $t5, $db, $t1
  stb   $t4, 0($t5)
  addi  $t2, $t2, -1
  cmp   $t2, $z
  bne   movb_rloop
movb_done:
  jr    $ra

; ---------------------------------------------------------------- MOVW ---
; $t0 src words, $t1 dst words, $t2 signed count.
MILLI_MOVW:
  lsli  $t2, $t2, 16
  asri  $t2, $t2, 16
  lsli  $t0, $t0, 1         ; to byte addresses
  lsli  $t1, $t1, 1
  cmp   $t2, $z
  beq   movw_done
  blt   movw_rev
movw_fwd:
  add   $t4, $db, $t0
  ldhu  $t4, 0($t4)
  add   $t5, $db, $t1
  sth   $t4, 0($t5)
  addi  $t0, $t0, 2
  addi  $t1, $t1, 2
  addi  $t2, $t2, -1
  cmp   $t2, $z
  bne   movw_fwd
  jr    $ra
movw_rev:
  sub   $t2, $z, $t2
  lsli  $t6, $t2, 1
  add   $t0, $t0, $t6
  add   $t1, $t1, $t6
movw_rloop:
  addi  $t0, $t0, -2
  addi  $t1, $t1, -2
  add   $t4, $db, $t0
  ldhu  $t4, 0($t4)
  add   $t5, $db, $t1
  sth   $t4, 0($t5)
  addi  $t2, $t2, -1
  cmp   $t2, $z
  bne   movw_rloop
movw_done:
  jr    $ra

; ---------------------------------------------------------------- CMPB ---
; $t0 a bytes, $t1 b bytes, $t2 count; sets $cc to -1/0/1.
MILLI_CMPB:
  move  $cc, $z
cmpb_loop:
  cmp   $t2, $z
  beq   cmpb_done
  add   $t4, $db, $t0
  ldbu  $t4, 0($t4)
  add   $t5, $db, $t1
  ldbu  $t5, 0($t5)
  addi  $t2, $t2, -1        ; the MIPS slot decrement, moved up
  cmp   $t4, $t5
  bne   cmpb_diff
  addi  $t0, $t0, 1
  addi  $t1, $t1, 1
  b     cmpb_loop
cmpb_diff:
  sub   $cc, $t4, $t5       ; sign carries the relation
cmpb_done:
  jr    $ra

; ---------------------------------------------------------------- SCNB ---
; $t0 address, $t1 test byte, $t2 limit; returns skip count in $t0,
; $cc = 0 if found else 1.
MILLI_SCNB:
  move  $t3, $z             ; skipped so far
scnb_loop:
  cmp   $t3, $t2
  beq   scnb_miss
  add   $t4, $db, $t0
  add   $t4, $t4, $t3
  ldbu  $t4, 0($t4)
  cmp   $t4, $t1
  beq   scnb_hit
  addi  $t3, $t3, 1
  b     scnb_loop
scnb_hit:
  move  $t0, $t3
  move  $cc, $z
  jr    $ra
scnb_miss:
  move  $t0, $t2
  iori  $cc, $z, 1
  jr    $ra
`

var milli = backend.Millicode{Source: MilliSource, Encode: encodeLine}
