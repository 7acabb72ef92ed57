let bsize = 8192
let fsize = 1024
let fpb = bsize / fsize
let sector_bytes = 512
let sectors_per_frag = fsize / sector_bytes
let ndaddr = 12
let nindir = bsize / 4
let dinode_bytes = 128
let inodes_per_block = bsize / dinode_bytes
let max_lbn = ndaddr + nindir + (nindir * nindir)
let sb_frag = 8
let bootblocks_frags = 16
let frag_to_byte f = f * fsize
let frag_to_sector f = f * sectors_per_frag
let lbn_of_off off = off / bsize
let blk_off off = off mod bsize
let blocks_of_size size = (size + bsize - 1) / bsize
let frags_of_bytes n = (n + fsize - 1) / fsize

type level = Direct of int | Single of int | Double of int * int

let classify lbn =
  if lbn < 0 then invalid_arg "Layout.classify: negative lbn";
  if lbn < ndaddr then Direct lbn
  else
    let l = lbn - ndaddr in
    if l < nindir then Single l
    else
      let l = l - nindir in
      if l < nindir * nindir then Double (l / nindir, l mod nindir)
      else Vfs.Errno.raise_err Vfs.Errno.EFBIG "file too large"
