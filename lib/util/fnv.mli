(** 64-bit FNV-1a hashing.

    Used throughout the checker to fingerprint program states and
    happens-before signatures.  FNV-1a is chosen because it is trivially
    incremental: a hash value can be extended byte by byte, so a caller can
    stream its input into a reusable buffer (as [State.signature] does)
    instead of building a string first, and the result equals
    [hash_string] of the same bytes.

    The hashing functions compute the published 64-bit FNV-1a values and
    allocate only their boxed result: the accumulator stays an unboxed
    [int64] inside each loop. *)

type t = int64

val basis : t
(** The FNV-1a 64-bit offset basis. *)

val string : t -> string -> t
(** [string h s] extends [h] with the bytes of [s]. *)

val bytes : t -> Bytes.t -> int -> int -> t
(** [bytes h b off len] extends [h] with the [len] bytes of [b] starting
    at [off]; it equals [string h (Bytes.sub_string b off len)].  Raises
    [Invalid_argument] when [off] and [len] do not name a slice of [b]. *)

val int : t -> int -> t
(** [int h n] extends [h] with the 8 little-endian bytes of [n]'s 63-bit
    representation (the top bit of the last byte is always clear). *)

val int64 : t -> int64 -> t
(** [int64 h n] extends [h] with the 8 little-endian bytes of [n]. *)

val char : t -> char -> t
(** [char h c] extends [h] with the single byte [c]. *)

val hash_string : string -> t
(** [hash_string s] is [string basis s]. *)

val combine_commutative : t -> t -> t
(** Order-insensitive combination of two hashes (wrapping addition).
    Used where a set of sub-hashes must hash identically regardless of the
    order in which its elements were encountered. *)

val to_hex : t -> string
(** Render as a 16-character lowercase hex string. *)
