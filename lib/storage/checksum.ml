(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
   disks and filesystems conventionally stamp on sectors.  Slicing-by-8:
   table [k] advances a byte that sits [k] positions before the end of
   an 8-byte block, so one step folds two little-endian 32-bit words
   with eight lookups; the tail (< 8 bytes) runs bytewise on table 0.
   Host-side only (checksum computation models disk firmware and is
   never charged to the simulated machine). *)

(* Eight 256-entry tables laid end to end: entry [k * 256 + n]. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let tbl k n = Array.unsafe_get tables ((k lsl 8) lor (n land 0xff))
let word b i = Int32.to_int (Bytes.get_int32_le b i) land 0xffffffff

let update crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.update";
  let c = ref ((crc lxor 0xffffffff) land 0xffffffff) in
  let i = ref off in
  let stop8 = off + len - 8 in
  while !i <= stop8 do
    let lo = word b !i lxor !c and hi = word b (!i + 4) in
    c :=
      tbl 7 lo
      lxor tbl 6 (lo lsr 8)
      lxor tbl 5 (lo lsr 16)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 hi
      lxor tbl 2 (hi lsr 8)
      lxor tbl 1 (hi lsr 16)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    c := tbl 0 (!c lxor Char.code (Bytes.unsafe_get b j)) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let bytes b = update 0 b 0 (Bytes.length b)
let string s = bytes (Bytes.unsafe_of_string s)
