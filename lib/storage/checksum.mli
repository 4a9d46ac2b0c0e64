(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]): the page
    checksum the storage layer stamps on every written-back page and
    verifies on every disk read.  Host-side only — checksum computation
    models disk firmware and is never charged to the simulated machine. *)

(** [update crc b off len] folds [len] bytes of [b] starting at [off]
    into a running checksum ([0] to start a fresh one).  Allocates
    nothing.  Raises [Invalid_argument] if [off, off + len) is not a
    valid range of [b]. *)
val update : int -> Bytes.t -> int -> int -> int

(** Checksum of a whole buffer. *)
val bytes : Bytes.t -> int

val string : string -> int
