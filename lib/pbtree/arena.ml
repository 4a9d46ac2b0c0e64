(* Bump allocator for memory-resident structures on the simulated machine.
   Lives in its own region of the simulated physical address space (well
   above any buffer-pool frame) so cache behaviour does not alias with
   disk-resident structures.  Allocations are cache-line aligned.

   Handles returned by [alloc] are *relative* addresses so they fit in the
   4-byte pointer slots of node layouts; 0 is never allocated (the first
   line of the arena is reserved) and serves as nil. *)

open Fpb_simmem
open Fpb_storage

let arena_base = 1 lsl 40
let chunk_bytes = 1 lsl 20

type t = {
  chunks : Mem.region Vec.t;
  mutable used : int;  (* bytes used in the last chunk *)
}

let create () =
  let t =
    { chunks = Vec.create ~dummy:(Mem.make ~bytes:Bytes.empty ~base:0);
      used = chunk_bytes }
  in
  t

let new_chunk t =
  let idx = Vec.length t.chunks in
  Vec.push t.chunks
    (Mem.make ~bytes:(Bytes.make chunk_bytes '\000')
       ~base:(arena_base + (idx * chunk_bytes)));
  t.used <- if idx = 0 then 64 (* reserve relative address 0 = nil *) else 0

(* Allocate [bytes] (<= chunk size, rounded up to a line); returns the
   handle (relative address, 32-bit safe for arenas below 2 GB). *)
let alloc t bytes =
  let bytes = Fpb_btree_common.Layout.align_up bytes 64 in
  if bytes > chunk_bytes then invalid_arg "Arena.alloc: too large";
  if t.used + bytes > chunk_bytes then new_chunk t;
  let idx = Vec.length t.chunks - 1 in
  let handle = (idx * chunk_bytes) + t.used in
  t.used <- t.used + bytes;
  handle

(* The region holding a handle, and the handle's offset within it.  Kept
   apart so per-node loops resolve a handle without building a pair. *)
let region t handle =
  let idx = handle / chunk_bytes in
  if handle <= 0 || idx >= Vec.length t.chunks then
    invalid_arg (Printf.sprintf "Arena: bad handle %#x" handle);
  Vec.get t.chunks idx

let offset handle = handle mod chunk_bytes

(* Resolve a handle to (region, offset). *)
let deref t handle = (region t handle, offset handle)

let allocated_bytes t =
  if Vec.length t.chunks = 0 then 0
  else ((Vec.length t.chunks - 1) * chunk_bytes) + t.used
